//! Randomized-sweep tests for the runtime substrate: the heap against a
//! reference model, set semantics, and interpreter arithmetic against
//! direct evaluation.
//!
//! Formerly `proptest`-based; now deterministic seeded sweeps (the
//! workspace builds offline with no registry dependencies). Each failure
//! message carries the seed that reproduces it.

use estelle_runtime::value::SmallSet;
use estelle_runtime::{Heap, Machine, Value};
use std::collections::BTreeSet;

/// Minimal SplitMix64 for reproducible pseudo-random sweeps.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
    fn index(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
    fn int(&mut self, lo: i64, hi: i64) -> i64 {
        lo + (self.next() % ((hi - lo) as u64 + 1)) as i64
    }
}

// ---------------------------------------------------------------------
// Heap vs. a reference model
// ---------------------------------------------------------------------

#[derive(Debug, Clone)]
enum HeapOp {
    Alloc(i64),
    /// Dispose the n-th live allocation (modulo the live count).
    Dispose(usize),
    /// Overwrite the n-th live allocation.
    Write(usize, i64),
    /// Snapshot now; verify the snapshot at the end.
    Snapshot,
}

fn heap_ops(rng: &mut Rng) -> Vec<HeapOp> {
    (0..rng.index(60))
        .map(|_| match rng.index(4) {
            0 => HeapOp::Alloc(rng.next() as i64),
            1 => HeapOp::Dispose(rng.index(8)),
            2 => HeapOp::Write(rng.index(8), rng.next() as i64),
            _ => HeapOp::Snapshot,
        })
        .collect()
}

/// The heap agrees with a simple Vec-based model under arbitrary
/// alloc/dispose/write interleavings, and snapshots are immutable.
#[test]
fn heap_matches_reference_model() {
    for seed in 0..256u64 {
        let ops = heap_ops(&mut Rng(seed));
        let mut heap = Heap::new();
        let mut live: Vec<(estelle_runtime::HeapRef, i64)> = Vec::new();
        let mut snapshot: Option<(Heap, Vec<(estelle_runtime::HeapRef, i64)>)> = None;

        for op in ops {
            match op {
                HeapOp::Alloc(v) => {
                    let r = heap.alloc(Value::Int(v));
                    live.push((r, v));
                }
                HeapOp::Dispose(i) => {
                    if !live.is_empty() {
                        let (r, _) = live.remove(i % live.len());
                        heap.dispose(r).expect("live ref disposes");
                        // Double dispose must fail.
                        assert!(heap.dispose(r).is_err(), "seed {}", seed);
                    }
                }
                HeapOp::Write(i, v) => {
                    if !live.is_empty() {
                        let idx = i % live.len();
                        let (r, _) = live[idx];
                        *heap.get_mut(r).expect("live ref reads") = Value::Int(v);
                        live[idx].1 = v;
                    }
                }
                HeapOp::Snapshot => {
                    snapshot = Some((heap.clone(), live.clone()));
                }
            }
            // Model agreement after every step.
            assert_eq!(heap.live(), live.len(), "seed {}", seed);
            for (r, v) in &live {
                assert_eq!(heap.get(*r).unwrap(), &Value::Int(*v), "seed {}", seed);
            }
        }

        // The snapshot still shows the world as it was.
        if let Some((snap, snap_live)) = snapshot {
            assert_eq!(snap.live(), snap_live.len(), "seed {}", seed);
            for (r, v) in &snap_live {
                assert_eq!(snap.get(*r).unwrap(), &Value::Int(*v), "seed {}", seed);
            }
        }
    }
}

/// SmallSet behaves like BTreeSet for insert/contains/len.
#[test]
fn small_set_matches_btreeset() {
    for seed in 0..256u64 {
        let mut rng = Rng(seed);
        let values: Vec<i64> = (0..rng.index(40)).map(|_| rng.int(-50, 49)).collect();
        let mut small = SmallSet::empty();
        let mut reference = BTreeSet::new();
        for v in &values {
            small.insert(*v);
            reference.insert(*v);
            assert_eq!(small.len(), reference.len(), "seed {}", seed);
        }
        for v in -50i64..50 {
            assert_eq!(small.contains(v), reference.contains(&v), "seed {}", seed);
        }
        let collected: Vec<i64> = small.iter().collect();
        let expected: Vec<i64> = reference.into_iter().collect();
        assert_eq!(collected, expected, "seed {}", seed);
    }
}

/// The interpreter's integer arithmetic matches Rust's, including
/// Pascal `div`/`mod` truncation semantics, evaluated through a real
/// compiled specification.
#[test]
fn interpreter_arithmetic_matches_host() {
    for seed in 0..48u64 {
        let mut rng = Rng(seed);
        let a = rng.int(-10_000, 9_999);
        let mut b = rng.int(-10_000, 9_999);
        if b == 0 {
            b = 1;
        }
        let src = format!(
            r#"
            specification arith;
            channel C(env, m); by env: go; by m: done(q : integer; r : integer; s : integer); end;
            module M process; ip P : C(m); end;
            body MB for M;
                var q, r, s : integer;
                state S;
                initialize to S begin
                    q := ({a}) div ({b});
                    r := ({a}) mod ({b});
                    s := (({a}) + ({b})) * 2 - ({b});
                end;
                trans
                from S to S when P.go begin output P.done(q, r, s) end;
            end;
            end.
            "#,
        );
        let machine = Machine::from_source(&src).expect("builds");
        let st = machine.initial_state().expect("initializes");
        assert_eq!(&st.globals[0], &Value::Int(a.wrapping_div(b)), "seed {}", seed);
        assert_eq!(&st.globals[1], &Value::Int(a.wrapping_rem(b)), "seed {}", seed);
        assert_eq!(&st.globals[2], &Value::Int((a + b) * 2 - b), "seed {}", seed);
    }
}

/// `matches` is reflexive and symmetric for arbitrary scalar values,
/// and undefined absorbs everything.
#[test]
fn value_matching_properties() {
    for seed in 0..256u64 {
        let mut rng = Rng(seed);
        let x = rng.int(-100, 99);
        let y = rng.int(-100, 99);
        let a = Value::Int(x);
        let b = Value::Int(y);
        assert!(a.matches(&a));
        assert_eq!(a.matches(&b), b.matches(&a));
        assert_eq!(a.matches(&b), x == y);
        assert!(Value::Undefined.matches(&a));
        assert!(a.matches(&Value::Undefined));
    }
}

/// Machine state snapshots are genuinely independent: mutating the live
/// state never leaks into a clone taken earlier (the Save operation).
#[test]
fn machine_state_snapshot_independence() {
    let src = r#"
        specification snap;
        channel C(env, m); by env: bump; end;
        module M process; ip P : C(m); end;
        body MB for M;
            type cell = record v : integer; next : ^cell end;
            var n : integer; head : ^cell;
            state S;
            initialize to S begin n := 0; head := nil end;
            trans
            from S to S when P.bump begin
                n := n + 1;
                new(head);
                head^.v := n;
            end;
        end;
        end.
    "#;
    let machine = Machine::from_source(src).unwrap();
    let mut st = machine.initial_state().unwrap();

    struct OneShot(usize);
    impl estelle_runtime::InputSource for OneShot {
        fn head(&self, _ip: usize) -> estelle_runtime::QueueHead {
            if self.0 > 0 {
                estelle_runtime::QueueHead::Message {
                    interaction: 0,
                    params: vec![],
                }
            } else {
                estelle_runtime::QueueHead::Empty
            }
        }
        fn consume(&mut self, _ip: usize) {
            self.0 -= 1;
        }
    }
    impl estelle_runtime::OutputSink for OneShot {
        fn emit(&mut self, _: usize, _: usize, _: &[Value]) -> bool {
            true
        }
    }

    let mut env = OneShot(3);
    let snapshots: Vec<_> = (0..3)
        .map(|_| {
            let snap = st.clone();
            let g = machine.generate(&mut st, &env).unwrap();
            machine.fire(&mut st, &g.fireable[0], &mut env).unwrap();
            snap
        })
        .collect();

    assert_eq!(st.globals[0], Value::Int(3));
    for (i, snap) in snapshots.iter().enumerate() {
        assert_eq!(snap.globals[0], Value::Int(i as i64));
        assert_eq!(snap.heap.live(), i);
    }
}
