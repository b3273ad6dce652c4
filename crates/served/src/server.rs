//! The serving loop: a bounded request queue, micro-batching workers over
//! the engine's request API, and a line-protocol connection handler.

use crate::config::ServeConfig;
use crate::metrics::Metrics;
use engine::api::run_requests;
use engine::json::JsonValue;
use engine::{
    ErrorCode, PolicyKind, Request, RequestClass, Response, ServeError, SharedSystemCache,
    WorkerCache,
};
use std::collections::{BTreeMap, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// One queued request with its reply route: the connection's sequence
/// number (for in-order writing) and the channel back to its writer.
struct Job {
    seq: u64,
    request: Request,
    /// When the request entered the queue (latency measurement only).
    queued: Instant,
    reply: Sender<(u64, String)>,
}

/// State shared between connections and workers.
struct ServerState {
    config: ServeConfig,
    queue: Mutex<VecDeque<Job>>,
    /// Signals workers that the queue is non-empty (or shutting down).
    available: Condvar,
    shutting_down: AtomicBool,
    cache: Arc<SharedSystemCache>,
    metrics: Arc<Metrics>,
}

/// A running scheduling service: worker threads draining a bounded queue
/// of [`Request`]s through the engine's micro-batching request API, with a
/// process-wide system cache shared by every worker.
pub struct Server {
    state: Arc<ServerState>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("config", &self.state.config).finish_non_exhaustive()
    }
}

impl Server {
    /// Starts the worker threads.
    #[must_use]
    pub fn start(config: ServeConfig) -> Self {
        let state = Arc::new(ServerState {
            config: config.clone(),
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            shutting_down: AtomicBool::new(false),
            cache: Arc::new(SharedSystemCache::new()),
            metrics: Arc::new(Metrics::new()),
        });
        let workers = (0..config.workers.max(1))
            .map(|_| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || worker_loop(&state))
            })
            .collect();
        Self { state, workers: Mutex::new(workers) }
    }

    /// The process-wide system cache (for stats reporting).
    #[must_use]
    pub fn cache(&self) -> &SharedSystemCache {
        &self.state.cache
    }

    /// The service counters.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.state.metrics
    }

    /// Stops accepting work, answers everything still queued, and joins
    /// the workers. Idempotent.
    pub fn shutdown(&self) {
        // ordering: Relaxed — a latch only; the queue mutex orders the drain.
        self.state.shutting_down.store(true, Ordering::Relaxed);
        self.state.available.notify_all();
        let mut workers = self.workers.lock().unwrap_or_else(PoisonError::into_inner);
        for worker in workers.drain(..) {
            // A worker that panicked already answered with poisoned locks;
            // there is nothing left to salvage from its result.
            let _ = worker.join();
        }
    }

    /// Answers one protocol stream: reads line-delimited JSON requests
    /// from `input`, writes one response line per request to `output` **in
    /// request order**. Malformed, oversized or refused requests get error
    /// responses on the same stream; only transport failures end the
    /// connection early.
    ///
    /// # Errors
    ///
    /// Returns the first I/O error of the underlying reader.
    pub fn serve_connection<R, W>(&self, mut input: R, output: W) -> std::io::Result<()>
    where
        R: BufRead,
        W: Write + Send,
    {
        let (reply, responses) = mpsc::channel::<(u64, String)>();
        let mut read_error = None;
        std::thread::scope(|scope| {
            let writer = scope.spawn(move || write_in_order(responses, output));
            let mut seq: u64 = 0;
            let mut line = Vec::new();
            loop {
                line.clear();
                match read_limited_line(&mut input, self.state.config.max_line_bytes, &mut line) {
                    Err(error) => {
                        read_error = Some(error);
                        break;
                    }
                    Ok(LineRead::Eof) => break,
                    Ok(LineRead::Line) => {
                        if line.iter().all(u8::is_ascii_whitespace) {
                            continue; // blank lines keep streams easy to script
                        }
                        self.submit_line(&line, seq, &reply);
                        seq += 1;
                    }
                    Ok(LineRead::Oversized) => {
                        self.state.metrics.request();
                        let error = ServeError::new(
                            ErrorCode::Oversized,
                            format!(
                                "request line exceeds {} bytes",
                                self.state.config.max_line_bytes
                            ),
                        );
                        self.answer_directly(seq, JsonValue::Null, error, &reply);
                        seq += 1;
                    }
                }
            }
            drop(reply); // writer exits once every job's sender is gone
            let _ = writer.join();
        });
        match read_error {
            Some(error) => Err(error),
            None => Ok(()),
        }
    }

    /// Accepts TCP connections on `listener` for as long as it yields them,
    /// answering each on its own thread as one protocol stream (see
    /// [`Server::serve_connection`]). Accept and connection failures are
    /// logged to stderr and never stop the loop.
    pub fn serve_listener(&self, listener: &TcpListener) {
        std::thread::scope(|scope| {
            for stream in listener.incoming() {
                let (reader, writer) = match stream.and_then(split_connection) {
                    Ok(halves) => halves,
                    Err(error) => {
                        eprintln!("error: cannot accept connection: {error}");
                        continue;
                    }
                };
                scope.spawn(move || {
                    if let Err(error) = self.serve_connection(reader, writer) {
                        eprintln!("error: connection failed: {error}");
                    }
                });
            }
        });
    }

    /// Parses one raw line and either queues it or answers it immediately
    /// (parse failure, admission refusal, overload).
    fn submit_line(&self, line: &[u8], seq: u64, reply: &Sender<(u64, String)>) {
        self.state.metrics.request();
        let parsed = std::str::from_utf8(line)
            .map_err(|error| ServeError {
                code: ErrorCode::Parse,
                message: format!("request line is not UTF-8: {error}"),
                offset: Some(error.valid_up_to()),
            })
            .and_then(|text| {
                Request::from_line(text).map_err(|error| ServeError::from_engine(&error))
            });
        let request = match parsed {
            Ok(request) => request,
            Err(error) => {
                self.answer_directly(seq, JsonValue::Null, error, reply);
                return;
            }
        };
        if let Some(error) = self.admission_error(&request) {
            self.answer_directly(seq, request.id, error, reply);
            return;
        }
        // xlint: allow(clock) -- queue-to-answer latency measurement only.
        let job = Job { seq, request, queued: Instant::now(), reply: reply.clone() };
        let mut queue = self.state.queue.lock().unwrap_or_else(PoisonError::into_inner);
        // ordering: Relaxed — checked under the queue mutex shutdown also takes.
        if self.state.shutting_down.load(Ordering::Relaxed)
            || queue.len() >= self.state.config.queue_capacity
        {
            drop(queue);
            self.state.metrics.overloaded();
            let error =
                ServeError::new(ErrorCode::Overloaded, "request queue is full; retry later");
            let response = Response::failure(job.request.id.clone(), error);
            let _ = reply.send((seq, render_response(&response)));
            return;
        }
        queue.push_back(job);
        drop(queue);
        self.state.available.notify_one();
    }

    /// Checks the request against its class's admission budget.
    fn admission_error(&self, request: &Request) -> Option<ServeError> {
        let PolicyKind::Optimal { budget } = request.scenario.policy else {
            return None;
        };
        let cap = match request.class {
            RequestClass::Interactive => self.state.config.interactive_budget,
            RequestClass::Batch => self.state.config.batch_budget,
        };
        (budget > cap).then(|| {
            ServeError::new(
                ErrorCode::Admission,
                format!(
                    "optimal budget {budget} exceeds the {} class cap {cap}",
                    request.class.name()
                ),
            )
        })
    }

    /// Sends an error response for a request that never reached the queue,
    /// echoing the request id when the line parsed far enough to have one.
    fn answer_directly(
        &self,
        seq: u64,
        id: JsonValue,
        error: ServeError,
        reply: &Sender<(u64, String)>,
    ) {
        self.state.metrics.answered(false, 0);
        let response = Response::failure(id, error);
        let _ = reply.send((seq, render_response(&response)));
    }
}

/// Readies an accepted TCP stream for the protocol and splits it into a
/// buffered reader and a writer. Sets `TCP_NODELAY`, so a response leaves
/// as soon as it is written instead of waiting for the peer to ACK the
/// previous one; if that fails, the error is logged and the stream is
/// served anyway.
///
/// # Errors
///
/// Returns the error of cloning the socket handle for the reader.
pub fn split_connection(stream: TcpStream) -> std::io::Result<(BufReader<TcpStream>, TcpStream)> {
    if let Err(error) = stream.set_nodelay(true) {
        eprintln!("error: cannot set TCP_NODELAY: {error}");
    }
    Ok((BufReader::new(stream.try_clone()?), stream))
}

/// Whether the server told its workers to stop **and** the queue is empty.
fn drained(state: &ServerState, queue: &VecDeque<Job>) -> bool {
    // ordering: Relaxed — read under the queue mutex; see `shutdown`.
    state.shutting_down.load(Ordering::Relaxed) && queue.is_empty()
}

/// One worker: drain up to `batch_max` queued jobs, answer them through
/// the engine's micro-batching request API, repeat until shutdown.
///
/// Every request looks its system up in the process-wide shared cache and
/// runs on a copy of the cached backend that reads the shared tables in
/// place (never recomputing or copying a table), so worker memory stays
/// bounded for a long-running process and every request's reuse is visible
/// in the shared hit counters. Requests are moved out of their jobs, so the
/// only copy of a request is the scenario its result row carries.
fn worker_loop(state: &ServerState) {
    let cache = WorkerCache::with_shared(Arc::clone(&state.cache));
    loop {
        let jobs = {
            let mut queue = state.queue.lock().unwrap_or_else(PoisonError::into_inner);
            while queue.is_empty() {
                if drained(state, &queue) {
                    return;
                }
                queue = state.available.wait(queue).unwrap_or_else(PoisonError::into_inner);
            }
            let take = queue.len().min(state.config.batch_max);
            queue.drain(..take).collect::<Vec<Job>>()
        };
        let (requests, replies): (Vec<Request>, Vec<_>) =
            jobs.into_iter().map(|job| (job.request, (job.seq, job.queued, job.reply))).unzip();
        let mut responses = run_requests(&requests, &cache);
        state.metrics.batch(requests.len() as u64);
        for ((seq, queued, reply), response) in replies.into_iter().zip(responses.iter_mut()) {
            // Latency is measurement-only; it never enters the result row.
            let elapsed = queued.elapsed().as_micros();
            response.latency_micros = Some(u64::try_from(elapsed).unwrap_or(u64::MAX));
            state.metrics.answered(response.is_ok(), response.latency_micros.unwrap_or(0));
            let _ = reply.send((seq, render_response(response)));
        }
    }
}

/// Renders a response as one output line. Result rows only carry finite
/// numbers, so rendering cannot fail in practice; if it ever does, the
/// substitute line keeps the protocol invariant of one response per
/// request.
pub(crate) fn render_response(response: &Response) -> String {
    response.to_json_value().render().unwrap_or_else(|error| {
        let fallback = Response::failure(
            JsonValue::Null,
            ServeError::new(ErrorCode::Internal, format!("response rendering failed: {error}")),
        );
        fallback
            .to_json_value()
            .render()
            .unwrap_or_else(|_| "{\"status\":\"error\",\"code\":\"internal\"}".to_owned())
    })
}

/// The outcome of reading one request line.
enum LineRead {
    /// A (possibly final, unterminated) line is in the buffer.
    Line,
    /// Nothing left to read.
    Eof,
    /// The line exceeded the limit; the rest of it was discarded.
    Oversized,
}

/// Reads one `\n`-terminated line of at most `max` bytes into `buf` (the
/// terminator is stripped). Longer lines are discarded to the terminator
/// and reported as [`LineRead::Oversized`], keeping the stream aligned on
/// line boundaries.
fn read_limited_line<R: BufRead>(
    input: &mut R,
    max: usize,
    buf: &mut Vec<u8>,
) -> std::io::Result<LineRead> {
    let limit = max as u64 + 1;
    let read = Read::take(&mut *input, limit).read_until(b'\n', buf)?;
    if read == 0 {
        return Ok(LineRead::Eof);
    }
    if buf.last() == Some(&b'\n') {
        buf.pop();
        if buf.last() == Some(&b'\r') {
            buf.pop();
        }
        return Ok(LineRead::Line);
    }
    if (read as u64) < limit {
        return Ok(LineRead::Line); // final line without a terminator
    }
    // The line is longer than the limit: skip to the next line boundary.
    loop {
        buf.clear();
        let read = Read::take(&mut *input, limit).read_until(b'\n', buf)?;
        if read == 0 || buf.last() == Some(&b'\n') {
            buf.clear();
            return Ok(LineRead::Oversized);
        }
    }
}

/// The byte count at which the in-order writer hands its buffer to the
/// output mid-drain. A saturated connection is written in chunks of about
/// this size, so its buffer never grows past one chunk plus one line.
const WRITE_CHUNK_BYTES: usize = 64 * 1024;

/// Receives `(seq, line)` pairs and writes the lines in sequence order,
/// buffering out-of-order arrivals. Every reply already queued when the
/// writer wakes is gathered into one buffer of whole lines and written at
/// once: one write per drain instead of two per response, and never a
/// lone terminator left waiting for the peer's ACK. On disconnect,
/// anything still pending (gaps can only come from a dropped reply sender)
/// is written in order so no response is silently lost.
fn write_in_order<W: Write>(
    responses: mpsc::Receiver<(u64, String)>,
    mut output: W,
) -> std::io::Result<()> {
    let mut pending: BTreeMap<u64, String> = BTreeMap::new();
    let mut next: u64 = 0;
    let mut buffer: Vec<u8> = Vec::new();
    while let Ok(first) = responses.recv() {
        for (seq, line) in std::iter::once(first).chain(responses.try_iter()) {
            pending.insert(seq, line);
            let mut chunk_written = false;
            while let Some(line) = pending.remove(&next) {
                chunk_written |= push_line(&mut buffer, &line, &mut output)?;
                next += 1;
            }
            if chunk_written {
                break; // end the drain at the cap; the next `recv` resumes it
            }
        }
        write_buffer(&mut buffer, &mut output)?;
        if pending.is_empty() {
            output.flush()?;
        }
    }
    for line in pending.into_values() {
        push_line(&mut buffer, &line, &mut output)?;
    }
    write_buffer(&mut buffer, &mut output)?;
    output.flush()
}

/// Appends one response line and its terminator to `buffer`, writing the
/// buffer out once it holds [`WRITE_CHUNK_BYTES`]. Returns whether it wrote.
fn push_line<W: Write>(buffer: &mut Vec<u8>, line: &str, output: &mut W) -> std::io::Result<bool> {
    buffer.extend_from_slice(line.as_bytes());
    buffer.push(b'\n');
    if buffer.len() < WRITE_CHUNK_BYTES {
        return Ok(false);
    }
    write_buffer(buffer, output)?;
    Ok(true)
}

/// Writes and clears `buffer` in one `write_all`, if it holds anything.
fn write_buffer<W: Write>(buffer: &mut Vec<u8>, output: &mut W) -> std::io::Result<()> {
    if !buffer.is_empty() {
        output.write_all(buffer)?;
        buffer.clear();
    }
    Ok(())
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An output that records the bytes of every `write` call.
    #[derive(Default)]
    struct Recorder {
        writes: Vec<Vec<u8>>,
    }

    impl Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// Queues `replies` before the writer starts, drops the sender, and
    /// returns every write the writer made.
    fn writes_for(replies: &[(u64, String)]) -> Vec<Vec<u8>> {
        let (reply, responses) = mpsc::channel();
        for (seq, line) in replies {
            reply.send((*seq, line.clone())).unwrap();
        }
        drop(reply);
        let mut recorder = Recorder::default();
        write_in_order(responses, &mut recorder).unwrap();
        recorder.writes
    }

    fn numbered(seqs: &[u64]) -> Vec<(u64, String)> {
        seqs.iter().map(|&seq| (seq, format!("line {seq}"))).collect()
    }

    fn text(writes: &[Vec<u8>]) -> String {
        String::from_utf8(writes.concat()).unwrap()
    }

    #[test]
    fn queued_replies_leave_in_one_write() {
        let writes = writes_for(&numbered(&[0, 1, 2, 3, 4]));
        assert_eq!(writes.len(), 1);
        assert_eq!(text(&writes), "line 0\nline 1\nline 2\nline 3\nline 4\n");
    }

    #[test]
    fn every_write_is_whole_lines_never_a_lone_terminator() {
        let (reply, responses) = mpsc::channel();
        let writer = std::thread::spawn(move || {
            let mut recorder = Recorder::default();
            write_in_order(responses, &mut recorder).unwrap();
            recorder.writes
        });
        for seq in 0..50 {
            reply.send((seq, format!("line {seq}"))).unwrap();
        }
        drop(reply);
        let writes = writer.join().unwrap();
        assert!(!writes.is_empty());
        for write in &writes {
            assert_ne!(write.as_slice(), b"\n");
            assert_eq!(write.last(), Some(&b'\n'));
        }
        let expected: String = (0..50).map(|seq| format!("line {seq}\n")).collect();
        assert_eq!(text(&writes), expected);
    }

    #[test]
    fn out_of_order_replies_are_written_in_sequence() {
        let writes = writes_for(&numbered(&[3, 1, 0, 2]));
        assert_eq!(text(&writes), "line 0\nline 1\nline 2\nline 3\n");
    }

    #[test]
    fn replies_past_the_chunk_cap_split_at_line_boundaries() {
        let line = "x".repeat(WRITE_CHUNK_BYTES / 4);
        let replies: Vec<(u64, String)> = (0..10).map(|seq| (seq, line.clone())).collect();
        let writes = writes_for(&replies);
        assert!(writes.len() > 1, "ten quarter-cap lines need more than one write");
        for write in &writes {
            assert!(write.len() <= WRITE_CHUNK_BYTES + line.len() + 1);
            assert_eq!(write.len() % (line.len() + 1), 0, "a write split a line");
        }
        assert_eq!(text(&writes), format!("{line}\n").repeat(10));
    }

    #[test]
    fn a_gap_left_by_a_dropped_sender_still_flushes_everything_in_order() {
        let writes = writes_for(&numbered(&[4, 0, 2, 3]));
        assert_eq!(text(&writes), "line 0\nline 2\nline 3\nline 4\n");
    }
}
