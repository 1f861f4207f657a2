//! Exhaustive coverage of the supported Estelle/Pascal constructs,
//! exercised end-to-end: source → frontend → compiler → interpreter.
//!
//! Each test builds a small specification whose `initialize` block (or a
//! fired transition) computes into module variables, then asserts on the
//! resulting machine state.

use estelle_runtime::{
    FireOutcome, InputSource, Machine, MachineState, OutputSink, QueueHead, RuntimeErrorKind,
    Value,
};

/// Build a machine whose module body is `body MB for M; <body> end;` with
/// one bidirectional channel on IP `P`.
fn machine_with(body: &str) -> Machine {
    let src = format!(
        r#"
        specification t;
        channel C(env, m);
            by env: go(n : integer);
            by m: out1(v : integer);
        end;
        module M process; ip P : C(m); end;
        body MB for M;
            {}
        end;
        end.
        "#,
        body
    );
    Machine::from_source(&src).unwrap_or_else(|e| panic!("spec failed: {}\n{}", e, src))
}

fn init_state(body: &str) -> (Machine, MachineState) {
    let m = machine_with(body);
    let st = m.initial_state().expect("initializes");
    (m, st)
}

/// A single-queue scripted environment.
struct Env {
    msgs: Vec<Vec<Value>>,
    pos: usize,
    outputs: Vec<Vec<Value>>,
}

impl Env {
    fn new(msgs: Vec<Vec<Value>>) -> Self {
        Env {
            msgs,
            pos: 0,
            outputs: Vec::new(),
        }
    }
}

impl InputSource for Env {
    fn head(&self, _ip: usize) -> QueueHead {
        match self.msgs.get(self.pos) {
            Some(params) => QueueHead::Message {
                interaction: 0,
                params: params.clone(),
            },
            None => QueueHead::Empty,
        }
    }
    fn consume(&mut self, _ip: usize) {
        self.pos += 1;
    }
}

impl OutputSink for Env {
    fn emit(&mut self, _ip: usize, _interaction: usize, params: &[Value]) -> bool {
        self.outputs.push(params.to_vec());
        true
    }
}

#[test]
fn while_loop_sums() {
    let (_, st) = init_state(
        "var s, i : integer; state S;
         initialize to S begin
            s := 0; i := 1;
            while i <= 10 do begin s := s + i; i := i + 1 end;
         end;",
    );
    assert_eq!(st.globals[0], Value::Int(55));
}

#[test]
fn repeat_runs_at_least_once() {
    let (_, st) = init_state(
        "var n : integer; state S;
         initialize to S begin
            n := 100;
            repeat n := n + 1 until true;
         end;",
    );
    assert_eq!(st.globals[0], Value::Int(101));
}

#[test]
fn for_up_and_downto() {
    let (_, st) = init_state(
        "var up, down, i : integer; state S;
         initialize to S begin
            up := 0; down := 0;
            for i := 1 to 5 do up := up + i;
            for i := 5 downto 1 do down := down * 2 + i;
         end;",
    );
    assert_eq!(st.globals[0], Value::Int(15));
    assert_eq!(st.globals[1], Value::Int(5 * 16 + 4 * 8 + 3 * 4 + 2 * 2 + 1));
}

#[test]
fn for_with_empty_range_skips() {
    let (_, st) = init_state(
        "var n, i : integer; state S;
         initialize to S begin
            n := 7;
            for i := 5 to 1 do n := 0;
            for i := 1 downto 5 do n := 0;
         end;",
    );
    assert_eq!(st.globals[0], Value::Int(7));
}

#[test]
fn case_selects_arm_and_else() {
    let (_, st) = init_state(
        "var a, b, c : integer; state S;
         initialize to S begin
            case 2 of 1 : a := 10; 2, 3 : a := 20 else a := 30 end;
            case 9 of 1 : b := 10; 2, 3 : b := 20 else b := 30 end;
            c := 1;
            case 4 of 1 : c := 99 end;
         end;",
    );
    assert_eq!(st.globals[0], Value::Int(20));
    assert_eq!(st.globals[1], Value::Int(30));
    // Unmatched case without else is a no-op (lenient semantics).
    assert_eq!(st.globals[2], Value::Int(1));
}

#[test]
fn enums_order_and_case_labels() {
    let (_, st) = init_state(
        "type color = (red, green, blue);
         var c : color; rank : integer; state S;
         initialize to S begin
            c := green;
            if c > red then rank := 1 else rank := 0;
            case c of red : rank := 10; green : rank := rank + 100 end;
         end;",
    );
    assert_eq!(st.globals[1], Value::Int(101));
}

#[test]
fn subrange_and_mod_arithmetic() {
    let (_, st) = init_state(
        "type seq = 0..7;
         var v : seq; state S;
         initialize to S begin
            v := 6;
            v := (v + 3) mod 8;
         end;",
    );
    assert_eq!(st.globals[0], Value::Int(1));
}

#[test]
fn records_and_arrays_compose() {
    let (_, st) = init_state(
        "type pair = record x : integer; y : integer end;
         var grid : array [0..2] of pair; sum : integer; i : integer;
         state S;
         initialize to S begin
            for i := 0 to 2 do begin
                grid[i].x := i * 10;
                grid[i].y := i;
            end;
            sum := grid[0].x + grid[1].x + grid[2].x + grid[2].y;
         end;",
    );
    assert_eq!(st.globals[1], Value::Int(32));
}

#[test]
fn array_assignment_copies_deeply() {
    let (_, st) = init_state(
        "var a, b : array [1..3] of integer; i : integer; probe : integer;
         state S;
         initialize to S begin
            for i := 1 to 3 do a[i] := i;
            b := a;
            a[1] := 99;
            probe := b[1];
         end;",
    );
    // globals: a=0, b=1, i=2, probe=3
    assert_eq!(st.globals[3], Value::Int(1));
}

#[test]
fn sets_membership_and_constructors() {
    let (_, st) = init_state(
        "type seq = 0..7;
         var s : set of seq; hit, miss : boolean; state S;
         initialize to S begin
            s := [1, 3..5];
            hit := 4 in s;
            miss := 2 in s;
         end;",
    );
    assert_eq!(st.globals[1], Value::Bool(true));
    assert_eq!(st.globals[2], Value::Bool(false));
}

#[test]
fn pointers_linked_list_and_dispose() {
    let (_, st) = init_state(
        "type cell = record v : integer; next : ^cell end;
         var head, tmp : ^cell; sum : integer; i : integer;
         state S;
         initialize to S begin
            head := nil;
            for i := 1 to 4 do begin
                new(tmp);
                tmp^.v := i;
                tmp^.next := head;
                head := tmp;
            end;
            sum := 0;
            while head <> nil do begin
                sum := sum + head^.v;
                tmp := head;
                head := head^.next;
                dispose(tmp);
            end;
         end;",
    );
    assert_eq!(st.globals[2], Value::Int(10));
    assert_eq!(st.heap.live(), 0);
}

#[test]
fn procedure_with_var_parameter() {
    let (_, st) = init_state(
        "var a, b : integer;
         procedure swap(var x : integer; var y : integer);
            var t : integer;
         begin
            t := x; x := y; y := t
         end;
         state S;
         initialize to S begin
            a := 1; b := 2;
            swap(a, b);
         end;",
    );
    assert_eq!(st.globals[0], Value::Int(2));
    assert_eq!(st.globals[1], Value::Int(1));
}

#[test]
fn recursive_function() {
    let (_, st) = init_state(
        "var f : integer;
         function fact(n : integer) : integer;
         begin
            if n <= 1 then fact := 1
            else fact := n * fact(n - 1)
         end;
         state S;
         initialize to S begin f := fact(6) end;",
    );
    assert_eq!(st.globals[0], Value::Int(720));
}

#[test]
fn function_result_via_name_assignment() {
    let (_, st) = init_state(
        "var r : integer;
         function clamp(v : integer) : integer;
         begin
            clamp := v;
            if v > 10 then clamp := 10;
            if v < 0 then clamp := 0
         end;
         state S;
         initialize to S begin r := clamp(42) + clamp(-3) + clamp(7) end;",
    );
    assert_eq!(st.globals[0], Value::Int(17));
}

#[test]
fn short_circuit_boolean_operators() {
    // `(n <> 0) and (10 div n > 1)` must not divide when n = 0.
    let (_, st) = init_state(
        "var n : integer; ok : boolean; state S;
         initialize to S begin
            n := 0;
            ok := (n <> 0) and ((10 div 1) > 1);
            if (n = 0) or ((10 div n) > 0) then ok := true;
         end;",
    );
    assert_eq!(st.globals[1], Value::Bool(true));
}

#[test]
fn division_by_zero_is_reported() {
    let m = machine_with(
        "var n : integer; state S;
         initialize to S begin n := 10 div (5 - 5) end;",
    );
    let err = m.initial_state().unwrap_err();
    assert_eq!(err.kind, RuntimeErrorKind::DivisionByZero);
}

#[test]
fn uninitialized_variable_use_is_reported() {
    let m = machine_with(
        "var a, b : integer; state S;
         initialize to S begin a := b + 1 end;",
    );
    let err = m.initial_state().unwrap_err();
    assert_eq!(err.kind, RuntimeErrorKind::UndefinedValue);
}

#[test]
fn nil_dereference_is_reported() {
    let m = machine_with(
        "type cell = record v : integer; next : ^cell end;
         var p : ^cell; x : integer; state S;
         initialize to S begin p := nil; x := p^.v end;",
    );
    let err = m.initial_state().unwrap_err();
    assert_eq!(err.kind, RuntimeErrorKind::DanglingPointer);
}

#[test]
fn dangling_pointer_after_dispose_is_reported() {
    let m = machine_with(
        "type cell = record v : integer; next : ^cell end;
         var p : ^cell; x : integer; state S;
         initialize to S begin
            new(p); p^.v := 1; dispose(p); x := p^.v
         end;",
    );
    let err = m.initial_state().unwrap_err();
    assert_eq!(err.kind, RuntimeErrorKind::DanglingPointer);
}

#[test]
fn array_bounds_are_checked() {
    let m = machine_with(
        "var a : array [0..3] of integer; i : integer; state S;
         initialize to S begin i := 4; a[i] := 1 end;",
    );
    let err = m.initial_state().unwrap_err();
    assert_eq!(err.kind, RuntimeErrorKind::IndexOutOfBounds);
}

#[test]
fn runaway_loop_hits_the_limit() {
    let m = machine_with(
        "var n : integer; state S;
         initialize to S begin
            n := 0;
            while n >= 0 do n := 1;
         end;",
    );
    let err = m.initial_state().unwrap_err();
    assert_eq!(err.kind, RuntimeErrorKind::LoopLimitExceeded);
}

#[test]
fn runaway_recursion_hits_the_limit() {
    let m = machine_with(
        "var x : integer;
         function f(n : integer) : integer;
         begin f := f(n + 1) end;
         state S;
         initialize to S begin x := f(0) end;",
    );
    let err = m.initial_state().unwrap_err();
    assert_eq!(err.kind, RuntimeErrorKind::CallDepthExceeded);
}

#[test]
fn when_parameters_flow_into_outputs() {
    let m = machine_with(
        "var acc : integer; state S;
         initialize to S begin acc := 0 end;
         trans
         from S to S when P.go begin
            acc := acc + n;
            output P.out1(acc * 2);
         end;",
    );
    let mut st = m.initial_state().unwrap();
    let mut env = Env::new(vec![vec![Value::Int(5)], vec![Value::Int(7)]]);
    for _ in 0..2 {
        let g = m.generate(&mut st, &env).unwrap();
        assert_eq!(g.fireable.len(), 1);
        let out = m.fire(&mut st, &g.fireable[0], &mut env).unwrap();
        assert_eq!(out, FireOutcome::Completed);
    }
    assert_eq!(env.outputs, vec![vec![Value::Int(10)], vec![Value::Int(24)]]);
}

#[test]
fn outputs_inside_procedures_reach_the_sink() {
    let m = machine_with(
        "procedure announce(v : integer);
         begin output P.out1(v) end;
         state S;
         initialize to S begin end;
         trans
         from S to S when P.go begin announce(n); announce(n + 1) end;",
    );
    let mut st = m.initial_state().unwrap();
    let mut env = Env::new(vec![vec![Value::Int(3)]]);
    let g = m.generate(&mut st, &env).unwrap();
    m.fire(&mut st, &g.fireable[0], &mut env).unwrap();
    assert_eq!(env.outputs, vec![vec![Value::Int(3)], vec![Value::Int(4)]]);
}

#[test]
fn any_clause_instances_behave_independently() {
    let m = machine_with(
        "var hits : array [0..2] of integer; slot : integer; state S;
         initialize to S begin
            for slot := 0 to 2 do hits[slot] := 0;
         end;
         trans
         from S to S when P.go any k : 0..2 do provided n = k begin
            hits[k] := hits[k] + 1;
         end;",
    );
    assert_eq!(m.module.transition_count(), 3);
    let mut st = m.initial_state().unwrap();
    let mut env = Env::new(vec![vec![Value::Int(2)], vec![Value::Int(0)], vec![Value::Int(2)]]);
    for _ in 0..3 {
        let g = m.generate(&mut st, &env).unwrap();
        assert_eq!(g.fireable.len(), 1, "guards select exactly one instance");
        m.fire(&mut st, &g.fireable[0], &mut env).unwrap();
    }
    assert_eq!(
        st.globals[0],
        Value::Array(vec![Value::Int(1), Value::Int(0), Value::Int(2)])
    );
}

#[test]
fn guards_with_function_calls_do_not_corrupt_state() {
    // The guard calls a function with a side effect; generate must
    // evaluate it against scratch state (see Machine::generate).
    let m = machine_with(
        "var poked : integer;
         function check(v : integer) : boolean;
         begin
            poked := poked + 1;
            check := v > 0
         end;
         state S;
         initialize to S begin poked := 0 end;
         trans
         from S to S when P.go provided check(n) begin output P.out1(poked) end;",
    );
    let mut st = m.initial_state().unwrap();
    let mut env = Env::new(vec![vec![Value::Int(1)]]);
    let g = m.generate(&mut st, &env).unwrap();
    assert_eq!(g.fireable.len(), 1);
    // The side effect of guard evaluation was discarded.
    assert_eq!(st.globals[0], Value::Int(0));
    m.fire(&mut st, &g.fireable[0], &mut env).unwrap();
    assert_eq!(env.outputs, vec![vec![Value::Int(0)]]);
}

#[test]
fn nested_any_clauses_cross_product() {
    let m = machine_with(
        "var total : integer; state S;
         initialize to S begin total := 0 end;
         trans
         from S to S any i : 0..1 do any j : 0..2 do provided false begin
            total := i + j;
         end;",
    );
    assert_eq!(m.module.transition_count(), 6);
}

#[test]
fn boolean_any_domain() {
    let m = machine_with(
        "var total : integer; state S;
         initialize to S begin total := 0 end;
         trans
         from S to S any b : boolean do provided b begin total := 1 end;",
    );
    assert_eq!(m.module.transition_count(), 2);
    let mut st = m.initial_state().unwrap();
    let env = estelle_runtime::env::NullEnv::default();
    let g = m.generate(&mut st, &env).unwrap();
    // Only the b=true instance passes its guard.
    assert_eq!(g.fireable.len(), 1);
}
