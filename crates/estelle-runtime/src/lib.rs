//! Executable EFSM model for Estelle specifications — the *Dingo* analog.
//!
//! Where NIST's Dingo generated C++ implementations from the Pet static
//! model, this crate compiles an analyzed module into a slot-addressed IR
//! and interprets it. It provides exactly the machinery backtracking trace
//! analysis needs (paper §2.2): **generate** fireable transitions,
//! **update** (fire) one, **save** and **restore** the composite TAM state
//! of §2.3 (FSM state, module variables, dynamic memory).
//!
//! ```
//! use estelle_runtime::Machine;
//!
//! let machine = Machine::from_source(r#"
//!     specification counter;
//!     channel C(env, m); by env: tick; by m: report(n : integer); end;
//!     module M process; ip P : C(m); end;
//!     body MB for M;
//!         var n : integer;
//!         state Run;
//!         initialize to Run begin n := 0 end;
//!         trans
//!         from Run to Run when P.tick begin
//!             n := n + 1;
//!             output P.report(n);
//!         end;
//!     end;
//!     end.
//! "#).expect("valid spec");
//! let state = machine.initial_state().expect("initializes");
//! assert_eq!(machine.module.transition_count(), 1);
//! # let _ = state;
//! ```

pub mod bytecode;
pub mod codec;
pub mod compile;
pub mod env;
pub mod error;
pub mod fxhash;
pub mod graph;
pub mod heap;
pub mod interp;
pub mod ir;
pub mod machine;
pub mod normal_form;
pub mod trail;
pub mod value;
pub mod vm;

pub use bytecode::{DispatchIndex, ExecProgram};
pub use codec::{ByteReader, ByteWriter, CodecError};
pub use compile::{compile, CompiledModule};
pub use env::{InputSource, OutputSink, QueueHead};
pub use error::{RtResult, RuntimeError, RuntimeErrorKind};
pub use fxhash::FxHasher;
pub use heap::{Heap, HeapRef, CHUNK_CELLS};
pub use interp::UndefinedPolicy;
pub use machine::{BuildError, ExecMode, FireOutcome, Fireable, Generated, Machine, MachineState};
pub use trail::Trail;
pub use value::Value;
