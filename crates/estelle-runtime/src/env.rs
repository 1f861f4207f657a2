//! The machine's environment: where inputs come from and outputs go.
//!
//! The executable machine is agnostic about *why* it is being run. The
//! trace analyzer implements these traits to consume trace inputs and
//! verify trace outputs (with relative-order checking); the
//! implementation-generation mode implements them to feed scripted inputs
//! and log outputs to a trace file.

use crate::value::Value;

/// What the head of an input queue looks like to the machine.
#[derive(Clone, Debug, PartialEq)]
pub enum QueueHead {
    /// A consumable interaction: its index within the IP's input signatures
    /// and its parameter values.
    Message {
        interaction: usize,
        params: Vec<Value>,
    },
    /// No input available now and none can appear later (static trace
    /// exhausted, or consumption currently blocked by order checking).
    Empty,
    /// No input available now, but the trace is dynamic and may grow — the
    /// node being generated becomes a PG-node (paper §3.1.1).
    EmptyMayGrow,
    /// This IP's inputs are not observed (partial trace, §5.2): any `when`
    /// clause on it is satisfiable with fabricated undefined parameters.
    Unobserved,
}

/// Supplies input interactions to the machine, one FIFO queue per IP.
pub trait InputSource {
    /// Inspect the head of `ip`'s input queue without consuming it.
    fn head(&self, ip: usize) -> QueueHead;

    /// Consume the interaction previously returned by [`InputSource::head`].
    /// Called exactly once per fired input transition.
    fn consume(&mut self, ip: usize);
}

/// Receives output interactions emitted by `output` statements.
pub trait OutputSink {
    /// Called for each executed `output ip.interaction(args)`. Returning
    /// `false` aborts the transition body: the trace analyzer uses this to
    /// fail a branch as soon as a generated output cannot be matched.
    /// `params` is borrowed from the executor (the VM's registers), so a
    /// sink that only compares allocates nothing; one that keeps the
    /// output copies it.
    fn emit(&mut self, ip: usize, interaction: usize, params: &[Value]) -> bool;
}

/// A full machine environment: input queues plus an output sink. The
/// trace analyzer's environment implements both halves over one cursor
/// state, which is why `fire` takes a single object.
pub trait MachineEnv: InputSource + OutputSink {}

impl<T: InputSource + OutputSink + ?Sized> MachineEnv for T {}

/// An environment with no inputs and a sink that accepts everything;
/// useful for executing `initialize` blocks and in tests.
#[derive(Default, Debug)]
pub struct NullEnv {
    /// Outputs collected by the sink half.
    pub outputs: Vec<(usize, usize, Vec<Value>)>,
}

impl InputSource for NullEnv {
    fn head(&self, _ip: usize) -> QueueHead {
        QueueHead::Empty
    }

    fn consume(&mut self, _ip: usize) {
        panic!("NullEnv has no inputs to consume");
    }
}

impl OutputSink for NullEnv {
    fn emit(&mut self, ip: usize, interaction: usize, params: &[Value]) -> bool {
        self.outputs.push((ip, interaction, params.to_vec()));
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_env_collects_outputs() {
        let mut env = NullEnv::default();
        assert!(env.emit(0, 1, &[Value::Int(3)]));
        assert_eq!(env.outputs.len(), 1);
        assert_eq!(env.head(0), QueueHead::Empty);
    }
}
