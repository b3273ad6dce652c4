//! Networks of timed automata: shared variables, constant tables, clocks,
//! channels and the parallel composition of automata.

use crate::automaton::{Automaton, ChannelId, SyncDirection};
use crate::expr::{ArrayId, ClockId, VarId};
use crate::PtaError;

/// Identifier of an automaton within a network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AutomatonId(pub(crate) usize);

impl AutomatonId {
    /// The raw index of this automaton in the network's declaration order.
    #[must_use]
    pub fn index(&self) -> usize {
        self.0
    }
}

/// Kind of a synchronisation channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ChannelKind {
    /// Hand-shake synchronisation: a send requires exactly one receiver.
    Binary,
    /// Broadcast: a send synchronises with every automaton whose receive
    /// edge is enabled, possibly none.
    Broadcast,
}

#[derive(Debug, Clone, PartialEq)]
struct VarDecl {
    name: String,
    initial: i64,
}

#[derive(Debug, Clone, PartialEq)]
struct ArrayDecl {
    name: String,
    values: Vec<i64>,
}

#[derive(Debug, Clone, PartialEq)]
struct ClockDecl {
    name: String,
}

#[derive(Debug, Clone, PartialEq)]
struct ChannelDecl {
    name: String,
    kind: ChannelKind,
}

/// A network of priced timed automata sharing variables, constant tables,
/// clocks and channels.
///
/// Build a network by declaring the shared entities first (so that their
/// identifiers can be referenced from guards and updates) and then adding
/// the automata.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Network {
    vars: Vec<VarDecl>,
    arrays: Vec<ArrayDecl>,
    clocks: Vec<ClockDecl>,
    channels: Vec<ChannelDecl>,
    automata: Vec<Automaton>,
}

impl Network {
    /// Creates an empty network.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Declares an integer variable with an initial value.
    pub fn add_var(&mut self, name: impl Into<String>, initial: i64) -> VarId {
        self.vars.push(VarDecl { name: name.into(), initial });
        VarId(self.vars.len() - 1)
    }

    /// Declares a constant lookup table (e.g. the paper's `recov_times`).
    pub fn add_const_array(&mut self, name: impl Into<String>, values: Vec<i64>) -> ArrayId {
        self.arrays.push(ArrayDecl { name: name.into(), values });
        ArrayId(self.arrays.len() - 1)
    }

    /// Declares a clock.
    pub fn add_clock(&mut self, name: impl Into<String>) -> ClockId {
        self.clocks.push(ClockDecl { name: name.into() });
        ClockId(self.clocks.len() - 1)
    }

    /// Declares a synchronisation channel.
    pub fn add_channel(&mut self, name: impl Into<String>, kind: ChannelKind) -> ChannelId {
        self.channels.push(ChannelDecl { name: name.into(), kind });
        ChannelId(self.channels.len() - 1)
    }

    /// Adds an automaton to the network.
    ///
    /// # Errors
    ///
    /// Returns [`PtaError::UnknownChannel`] if any of the automaton's edges
    /// synchronises on a channel that has not been declared, or
    /// [`PtaError::UnknownLocation`] if the automaton has no locations.
    pub fn add_automaton(&mut self, automaton: Automaton) -> Result<AutomatonId, PtaError> {
        if automaton.locations().is_empty() {
            return Err(PtaError::UnknownLocation {
                automaton: automaton.name().to_owned(),
                location: 0,
            });
        }
        for edge in automaton.edges() {
            if let Some(sync) = edge.sync() {
                if sync.channel.index() >= self.channels.len() {
                    return Err(PtaError::UnknownChannel { channel: sync.channel.index() });
                }
            }
        }
        self.automata.push(automaton);
        Ok(AutomatonId(self.automata.len() - 1))
    }

    /// The automata of the network, in declaration order.
    #[must_use]
    pub fn automata(&self) -> &[Automaton] {
        &self.automata
    }

    /// The number of declared clocks.
    #[must_use]
    pub fn clock_count(&self) -> usize {
        self.clocks.len()
    }

    /// Initial values of all variables, in declaration order.
    #[must_use]
    pub fn initial_vars(&self) -> Vec<i64> {
        self.vars.iter().map(|v| v.initial).collect()
    }

    /// The values of all constant tables, in declaration order.
    #[must_use]
    pub fn array_values(&self) -> Vec<Vec<i64>> {
        self.arrays.iter().map(|a| a.values.clone()).collect()
    }

    /// The kind of a channel.
    ///
    /// # Errors
    ///
    /// Returns [`PtaError::UnknownChannel`] if the channel does not exist.
    pub fn channel_kind(&self, channel: ChannelId) -> Result<ChannelKind, PtaError> {
        self.channels
            .get(channel.index())
            .map(|c| c.kind)
            .ok_or(PtaError::UnknownChannel { channel: channel.index() })
    }

    /// Performs structural validation: the network must contain at least one
    /// automaton, and every binary channel with a sender must also have at
    /// least one potential receiver.
    ///
    /// # Errors
    ///
    /// Returns [`PtaError::EmptyNetwork`] or [`PtaError::DanglingBinarySend`].
    pub fn validate(&self) -> Result<(), PtaError> {
        if self.automata.is_empty() {
            return Err(PtaError::EmptyNetwork);
        }
        for (channel_index, channel) in self.channels.iter().enumerate() {
            if channel.kind != ChannelKind::Binary {
                continue;
            }
            let mut has_send = false;
            let mut has_receive = false;
            for automaton in &self.automata {
                for edge in automaton.edges() {
                    if let Some(sync) = edge.sync() {
                        if sync.channel.index() == channel_index {
                            match sync.direction {
                                SyncDirection::Send => has_send = true,
                                SyncDirection::Receive => has_receive = true,
                            }
                        }
                    }
                }
            }
            if has_send && !has_receive {
                return Err(PtaError::DanglingBinarySend { channel: channel_index });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::automaton::{Edge, Location};

    fn two_location_automaton(name: &str) -> (Automaton, crate::automaton::LocationId) {
        let mut automaton = Automaton::new(name);
        let a = automaton.add_location(Location::new("a"));
        let _b = automaton.add_location(Location::new("b"));
        (automaton, a)
    }

    #[test]
    fn declarations_get_sequential_ids() {
        let mut network = Network::new();
        let v0 = network.add_var("x", 1);
        let v1 = network.add_var("y", 2);
        assert_eq!(v0.index(), 0);
        assert_eq!(v1.index(), 1);
        assert_eq!(network.initial_vars(), vec![1, 2]);
        let a0 = network.add_const_array("table", vec![5, 6]);
        assert_eq!(a0.index(), 0);
        assert_eq!(network.array_values(), vec![vec![5, 6]]);
        let c0 = network.add_clock("t");
        assert_eq!(c0.index(), 0);
        assert_eq!(network.clock_count(), 1);
        let ch = network.add_channel("go", ChannelKind::Binary);
        assert_eq!(network.channel_kind(ch).unwrap(), ChannelKind::Binary);
    }

    #[test]
    fn empty_automaton_is_rejected() {
        let mut network = Network::new();
        assert!(network.add_automaton(Automaton::new("empty")).is_err());
    }

    #[test]
    fn automaton_with_undeclared_channel_is_rejected() {
        let mut network = Network::new();
        let (mut automaton, a) = two_location_automaton("a");
        automaton.add_edge(Edge::new(a, a).with_send(ChannelId(3))).unwrap();
        assert!(matches!(
            network.add_automaton(automaton),
            Err(PtaError::UnknownChannel { channel: 3 })
        ));
    }

    #[test]
    fn validate_rejects_empty_network_and_dangling_sends() {
        let network = Network::new();
        assert!(matches!(network.validate(), Err(PtaError::EmptyNetwork)));

        let mut network = Network::new();
        let ch = network.add_channel("go", ChannelKind::Binary);
        let (mut sender, a) = two_location_automaton("sender");
        sender.add_edge(Edge::new(a, a).with_send(ch)).unwrap();
        network.add_automaton(sender).unwrap();
        assert!(matches!(network.validate(), Err(PtaError::DanglingBinarySend { channel: 0 })));

        // Adding a receiver fixes it.
        let (mut receiver, b) = two_location_automaton("receiver");
        receiver.add_edge(Edge::new(b, b).with_receive(ch)).unwrap();
        network.add_automaton(receiver).unwrap();
        assert!(network.validate().is_ok());
    }

    #[test]
    fn broadcast_send_without_receiver_is_fine() {
        let mut network = Network::new();
        let ch = network.add_channel("announce", ChannelKind::Broadcast);
        let (mut sender, a) = two_location_automaton("sender");
        sender.add_edge(Edge::new(a, a).with_send(ch)).unwrap();
        network.add_automaton(sender).unwrap();
        assert!(network.validate().is_ok());
    }

    #[test]
    fn lookup_accessors() {
        let mut network = Network::new();
        let (automaton, _) = two_location_automaton("worker");
        let id = network.add_automaton(automaton).unwrap();
        assert_eq!(network.automata()[id.index()].name(), "worker");
        assert_eq!(network.automata().len(), 1);
        assert!(network.channel_kind(ChannelId(0)).is_err());
    }
}
