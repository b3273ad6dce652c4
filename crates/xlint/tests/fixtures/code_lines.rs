//! Code-line counting fixture: six lines below count as code.

/// A documented constant.
const ANSWER: u32 = 42; // trailing comment, still a code line

/* A block comment
   spanning three lines,
   none of them code. */

fn greeting() -> &'static str {
    "a string literal \
     whose continuation line holds no token"
}

fn main() {

    let _ = (ANSWER, greeting());
}

#[cfg(test)]
mod tests {
    #[test]
    fn masked() {
        assert_eq!(super::ANSWER, 42);
    }
}
