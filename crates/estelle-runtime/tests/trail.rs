//! The trail against snapshots: random fire sequences with nested marks.
//!
//! A walk over one live state marks the trail at random points, taking
//! a snapshot (`clone`) at each, and fires random candidates with the
//! trail on. Some fires have their outputs rejected or stop on a runtime
//! error half-way, leaving the state partly written. At random points,
//! and for every mark at the end, the trail is undone to the top mark:
//! the state must then equal that mark's snapshot, with equal
//! `approx_bytes` (the byte count the search charges a saved node).
//! Marks are also dropped without an undo, so their writes must undo to
//! the mark below. The walks run on the seeded random specifications of
//! `protocols::randspec` and on a specification that writes dynamic
//! memory (`new`, `dispose`, `p^.f :=`, array and record components,
//! `var` parameters), under the bytecode VM and the tree walker.

use estelle_runtime::env::InputSource;
use estelle_runtime::{
    ExecMode, FireOutcome, Machine, MachineState, OutputSink, QueueHead, Trail, Value,
};
use protocols::randspec::RandSpec;

/// SplitMix64, for reproducible walks.
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
}

/// A linked list, an array and a record, written by every kind of write
/// the executors have: `new`, `dispose`, `p^.f :=` (also through a `var`
/// parameter), array and record components, and whole globals.
const HEAP_SPEC: &str = r#"
specification trailheap;
channel C(env, m);
    by env: step(k : integer);
    by m: echo(k : integer);
end;
module M process; ip P : C(m); end;
body MB for M;
    type cell = record v : integer; w : array [0..2] of integer; next : ^cell end;
    var head, tmp : ^cell; n : integer;
        a : array [0..3] of integer;
        r : record x, y : integer end;
    state S, T;
    procedure bump(var x : integer; d : integer);
    begin x := x + d end;
    initialize to S begin
        head := nil; tmp := nil; n := 0;
        a[0] := 0; a[1] := 0; a[2] := 0; a[3] := 0;
        r.x := 0; r.y := 0;
    end;
    trans
    from S, T to S when P.step provided k mod 5 = 0 name Push:
        begin
            new(tmp);
            tmp^.v := k; tmp^.w[0] := n; tmp^.w[1] := 0; tmp^.w[2] := k;
            tmp^.next := head; head := tmp; tmp := nil; n := n + 1;
        end;
    from S, T to T when P.step provided (k mod 5 = 1) and (n > 0) name Pop:
        begin
            tmp := head; head := head^.next; dispose(tmp); tmp := nil; n := n - 1;
        end;
    from S, T to same when P.step provided (k mod 5 = 2) and (n > 0) name Poke:
        begin
            head^.v := head^.v + k; bump(head^.w[1], k);
            output P.echo(head^.v);
        end;
    from S, T to S when P.step provided k mod 5 = 3 name Arr:
        begin
            a[k mod 4] := k; bump(r.x, 1); r.y := a[0];
            output P.echo(r.x);
        end;
    from S to T when P.step provided (k mod 5 = 4) and (n > 1) name Drain:
        begin
            while head <> nil do
                begin tmp := head; head := head^.next; dispose(tmp); end;
            n := 0; tmp := nil;
            output P.echo(n);
        end;
    from S, T to T when P.step name Other:
        begin bump(a[1], k); r := r; end;
end;
end.
"#;

/// Every IP offers a `step(k)` with a random `k`; the sink rejects an
/// output at random, which aborts the fire half-way.
struct Walk {
    rng: Rng,
    k: i64,
}

impl InputSource for Walk {
    fn head(&self, _ip: usize) -> QueueHead {
        QueueHead::Message {
            interaction: 0,
            params: vec![Value::Int(self.k)],
        }
    }

    fn consume(&mut self, _ip: usize) {}
}

impl OutputSink for Walk {
    fn emit(&mut self, _ip: usize, _interaction: usize, _params: &[Value]) -> bool {
        self.rng.index(4) != 0
    }
}

/// Undo to the top mark and check the state against its snapshot.
fn undo_and_check(
    trail: &mut Trail,
    st: &mut MachineState,
    snap: &(MachineState, usize),
    at: &str,
) {
    trail.undo(st);
    assert_eq!(
        st, &snap.0,
        "{}: the undone state differs from its snapshot",
        at
    );
    assert_eq!(st.approx_bytes(), snap.1, "{}: approx_bytes differs", at);
}

/// One random walk of `steps` operations from the initial state.
/// Returns how many fires completed, so the caller can tell the walk
/// did fire.
fn walk(m: &Machine, seed: u64, steps: usize) -> usize {
    let mut env = Walk {
        rng: Rng(seed),
        k: 0,
    };
    let mut st = m.initial_state().expect("initializes");
    let mut trail = Trail::new();
    let mut snaps: Vec<(MachineState, usize)> = Vec::new();
    let mut fired = 0;
    for step in 0..steps {
        let at = format!("seed {} step {} ({:?})", seed, step, m.exec);
        match env.rng.index(10) {
            0 | 1 => {
                trail.mark();
                snaps.push((st.clone(), st.approx_bytes()));
            }
            2 => {
                if let Some(snap) = snaps.last() {
                    undo_and_check(&mut trail, &mut st, snap, &at);
                }
            }
            3 => {
                if let Some(snap) = snaps.pop() {
                    undo_and_check(&mut trail, &mut st, &snap, &at);
                    trail.pop_mark();
                }
            }
            4 => {
                // Drop the top mark and keep its writes: they now undo
                // to the mark below.
                if snaps.pop().is_some() {
                    trail.pop_mark();
                }
            }
            _ => {
                env.k = env.rng.index(60) as i64;
                let Ok(g) = m.generate(&mut st, &env) else {
                    continue;
                };
                if g.fireable.is_empty() {
                    continue;
                }
                let f = &g.fireable[env.rng.index(g.fireable.len())];
                if let Ok(FireOutcome::Completed) =
                    m.fire_trailed(&mut st, Some(&mut trail), f, &mut env)
                {
                    fired += 1;
                }
            }
        }
        assert_eq!(trail.depth(), snaps.len(), "{}", at);
    }
    while let Some(snap) = snaps.pop() {
        let at = format!(
            "seed {} final unwind, depth {} ({:?})",
            seed,
            snaps.len() + 1,
            m.exec
        );
        undo_and_check(&mut trail, &mut st, &snap, &at);
        trail.pop_mark();
    }
    fired
}

fn both_executors(m: &Machine, seed: u64, steps: usize) {
    for exec in [ExecMode::Compiled, ExecMode::Interp] {
        let fired = walk(&m.exec_view(exec), seed, steps);
        assert!(
            fired > steps / 10,
            "seed {}: only {} fires completed",
            seed,
            fired
        );
    }
}

#[test]
fn undoing_to_a_mark_gives_its_snapshot_on_random_specs() {
    for seed in 0..24u64 {
        for spec in [
            RandSpec::new(seed),
            RandSpec::with_any_families(seed),
            RandSpec::with_family_guards(seed),
        ] {
            let m = Machine::from_source(&spec.source()).expect("randspec builds");
            both_executors(&m, seed, 300);
        }
    }
}

#[test]
fn undoing_to_a_mark_gives_its_snapshot_on_dynamic_memory() {
    let m = Machine::from_source(HEAP_SPEC).expect("the heap spec builds");
    for seed in 0..64u64 {
        both_executors(&m, seed, 400);
    }
}

/// Without a mark, a trailed fire records nothing: undoing to a mark
/// pushed afterwards leaves the state as it is.
#[test]
fn writes_before_the_first_mark_are_not_recorded() {
    let m = Machine::from_source(HEAP_SPEC).expect("the heap spec builds");
    let mut env = Walk { rng: Rng(7), k: 0 };
    let mut st = m.initial_state().unwrap();
    let mut trail = Trail::new();
    env.k = 0;
    let g = m.generate(&mut st, &env).unwrap();
    let push = g
        .fireable
        .iter()
        .find(|f| m.transition_name(f.trans) == "Push")
        .unwrap();
    m.fire_trailed(&mut st, Some(&mut trail), push, &mut env)
        .unwrap();
    assert_eq!(st.heap.live(), 1);
    trail.mark();
    let snap = (st.clone(), st.approx_bytes());
    undo_and_check(&mut trail, &mut st, &snap, "no records");
    assert_eq!(st.heap.live(), 1, "the write before the mark stays");
}

/// Whole and component writes to the same globals, repeated within one
/// fire: a record written whole then in parts, an array written in parts
/// then whole, through `var` parameters too, with outputs between them.
const STAMP_SPEC: &str = r#"
specification trailstamp;
channel C(env, m);
    by env: step(k : integer);
    by m: echo(k : integer);
end;
module M process; ip P : C(m); end;
body MB for M;
    type pair = record x, y : integer end;
    var r, q : pair; a, b : array [0..2] of integer; n : integer;
    state S;
    procedure bump(var x : integer; d : integer);
    begin x := x + d end;
    initialize to S begin
        r.x := 0; r.y := 0; q.x := 1; q.y := 2; n := 0;
        a[0] := 0; a[1] := 0; a[2] := 0; b[0] := 5; b[1] := 6; b[2] := 7;
    end;
    trans
    from S to S when P.step provided k mod 3 = 0 name Whole:
        begin
            r := q; r.x := k; bump(r.y, k); r := r;
            n := k; n := n + 1; q.y := n;
        end;
    from S to S when P.step provided k mod 3 = 1 name Parts:
        begin
            a[k mod 3] := k; a := b; a[1] := n; bump(a[2], k); b[0] := a[2];
            output P.echo(a[1]);
            n := n + k; r.x := n;
        end;
    from S to S when P.step provided k mod 3 = 2 name Again:
        begin
            n := k; output P.echo(n); n := n * 2; r := q; r.y := n;
        end;
end;
end.
"#;

/// Accepts every output; offers `step(k)`.
struct Accept(i64);

impl InputSource for Accept {
    fn head(&self, _ip: usize) -> QueueHead {
        QueueHead::Message {
            interaction: 0,
            params: vec![Value::Int(self.0)],
        }
    }

    fn consume(&mut self, _ip: usize) {}
}

impl OutputSink for Accept {
    fn emit(&mut self, _ip: usize, _interaction: usize, _params: &[Value]) -> bool {
        true
    }
}

/// A later write into a global already written whole in the same stretch
/// between two marks (or undos, or mark pops) records nothing; undoing
/// still gives each mark's snapshot: in a scripted nest of marks, with
/// an undo and a pop inside, and on random walks.
#[test]
fn repeated_and_component_writes_to_one_slot_undo_across_nested_marks() {
    let m = Machine::from_source(STAMP_SPEC).expect("the stamp spec builds");
    for exec in [ExecMode::Compiled, ExecMode::Interp] {
        let m = m.exec_view(exec);
        let mut st = m.initial_state().unwrap();
        let mut trail = Trail::new();
        let fire = |st: &mut MachineState, trail: &mut Trail, k: i64| {
            let mut env = Accept(k);
            let g = m.generate(st, &env).unwrap();
            assert_eq!(g.fireable.len(), 1, "step({}) enables one transition", k);
            let done = m.fire_trailed(st, Some(trail), &g.fireable[0], &mut env);
            assert_eq!(done.unwrap(), FireOutcome::Completed);
        };
        let at = format!("{:?}", exec);
        trail.mark();
        let outer = (st.clone(), st.approx_bytes());
        fire(&mut st, &mut trail, 0);
        fire(&mut st, &mut trail, 1);
        trail.mark();
        let inner = (st.clone(), st.approx_bytes());
        fire(&mut st, &mut trail, 3);
        fire(&mut st, &mut trail, 5);
        undo_and_check(&mut trail, &mut st, &inner, &format!("{}: inner", at));
        fire(&mut st, &mut trail, 6);
        fire(&mut st, &mut trail, 4);
        // The inner mark goes; its writes undo to the outer one.
        trail.pop_mark();
        fire(&mut st, &mut trail, 8);
        fire(&mut st, &mut trail, 9);
        undo_and_check(&mut trail, &mut st, &outer, &format!("{}: outer", at));
        trail.pop_mark();
    }
    for seed in 0..32u64 {
        both_executors(&m, seed, 300);
    }
}
