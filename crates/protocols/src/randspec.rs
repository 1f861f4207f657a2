//! Seeded random specification generator for differential testing.
//!
//! The two executors (tree walker and bytecode VM) must be
//! observationally identical on *any* specification, not just the
//! hand-written protocol families the benches use. This module generates
//! small random — but deterministic per seed — Estelle specifications
//! that exercise the shapes the compiler treats specially: quick guards
//! (`global op const`), call-free `and`-chains (which run the guard
//! chunk), `mod`/`div` arithmetic and `if`/`case` control flow.
//!
//! Every generated spec is progress-safe by construction: each state
//! has one unguarded `when P.step` catch-all declared *after* the
//! random guarded transitions, so a scripted workload always runs to
//! completion, and every spontaneous transition's body falsifies its
//! own guard, so the search cannot spin in place.
//!
//! [`RandSpec::with_any_families`] adds `any` families whose instances
//! are guarded `provided g = k` over an integer or an enum global: the
//! shape the compiled *Generate* answers with one lookup instead of one
//! guard per instance. Two families have a `when` clause, one ranges
//! over an enum type, and one has a second `any` variable, so its keys
//! repeat and it stays a per-instance scan. The enum family is the only
//! consumer of a second IP `Q` in its state, so an `EmptyMayGrow` head
//! there is flagged `incomplete` by that family alone. The global `u` is
//! guarded only by a family, so forcing it to `Undefined` exercises the
//! fallback scan.
//!
//! [`RandSpec::with_family_guards`] adds, on top of those, families whose
//! guards take the other shapes a family's one guard lowering derives per
//! instance: a range compare over a binding, a guard over the binding
//! alone (constant per instance), an `and`-chain mixing a binding and a
//! global, and a function call taking the binding; their bodies read the
//! binding. They draw from their own random stream, so the rest of the
//! source is the [`RandSpec::with_any_families`] one.

use estelle_runtime::Value;
use tango::rng::SplitMix64;
use tango::ScriptedInput;

/// One deterministic random specification.
#[derive(Clone, Copy, Debug)]
pub struct RandSpec {
    pub seed: u64,
    /// Emit `any` families with `provided g = k` guards.
    pub any_families: bool,
    /// Also emit families with range, binding-only, mixed `and` and
    /// call guards.
    pub family_guards: bool,
}

impl RandSpec {
    pub fn new(seed: u64) -> Self {
        RandSpec {
            seed,
            any_families: false,
            family_guards: false,
        }
    }

    /// The seed's specification plus `any` families (see the module
    /// docs).
    pub fn with_any_families(seed: u64) -> Self {
        RandSpec {
            seed,
            any_families: true,
            family_guards: false,
        }
    }

    /// [`RandSpec::with_any_families`] plus families whose guards are not
    /// `global = k` (see the module docs).
    pub fn with_family_guards(seed: u64) -> Self {
        RandSpec {
            seed,
            any_families: true,
            family_guards: true,
        }
    }

    /// Render the Estelle source for this seed.
    pub fn source(&self) -> String {
        let mut r = SplitMix64::new(self.seed ^ 0x9e3779b97f4a7c15);
        let states = 2 + r.gen_index(3); // 2..=4
        let vars = 2 + r.gen_index(2); // 2..=3

        let mut s = String::from(
            "specification randspec;\n\
             channel C(env, m);\n\
             \tby env: step(k : integer);\n\
             \tby m: echo(k : integer);\n\
             end;\n",
        );
        if self.any_families {
            s.push_str(
                "module M process; ip P : C(m); ip Q : C(m); end;\n\
                 body MB for M;\n\ttype mode = (m0, m1, m2, m3, m4, m5);\n",
            );
        } else {
            s.push_str("module M process; ip P : C(m); end;\nbody MB for M;\n");
        }
        s.push_str("\tvar ");
        for v in 0..vars {
            if v > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("v{}", v));
        }
        if self.any_families {
            s.push_str(", u : integer; md : mode");
        } else {
            s.push_str(" : integer");
        }
        s.push_str(";\n\tstate ");
        for i in 0..states {
            if i > 0 {
                s.push_str(", ");
            }
            s.push_str(&format!("S{}", i));
        }
        s.push_str(";\n");
        if self.family_guards {
            s.push_str(
                "\tfunction near(a, b : integer) : boolean;\n\
                 \tbegin near := (a - b) mod 3 = 0 end;\n",
            );
        }
        s.push_str("\tinitialize to S0 begin ");
        for v in 0..vars {
            s.push_str(&format!("v{} := {}; ", v, r.gen_index(5)));
        }
        if self.any_families {
            s.push_str(&format!(
                "u := {}; md := m{}; ",
                r.gen_index(8),
                r.gen_index(6)
            ));
        }
        s.push_str("end;\n\ttrans\n");

        // Random guarded input transitions: quick-guard and `and`-chain
        // shapes over the integer globals, plus guards involving `k`.
        let guarded = 3 + r.gen_index(6); // 3..=8
        for t in 0..guarded {
            let from = r.gen_index(states);
            let to = r.gen_index(states);
            let guard = gen_guard(&mut r, vars, true);
            let body = gen_body(&mut r, vars, true);
            s.push_str(&format!(
                "\tfrom S{} to S{} when P.step provided {} name G{}: begin {} end;\n",
                from, to, guard, t, body
            ));
        }
        // Spontaneous transitions whose bodies falsify their own guard
        // (`vX > hi` fired with `vX := small`), so firing one cannot
        // re-enable itself and the search always drains.
        let spont = 1 + r.gen_index(3); // 1..=3
        for t in 0..spont {
            let from = r.gen_index(states);
            let to = r.gen_index(states);
            let v = r.gen_index(vars);
            let hi = 30 + r.gen_index(20) as i64;
            let extra = gen_body(&mut r, vars, false);
            s.push_str(&format!(
                "\tfrom S{} to S{} provided v{} > {} name Sp{}: begin v{} := {}; {} end;\n",
                from, to, v, hi, t, v, r.gen_index(5), extra
            ));
        }
        let q_family_state = self
            .any_families
            .then(|| gen_families(&mut r, &mut s, states, vars));
        if self.family_guards {
            let mut f = SplitMix64::new(self.seed ^ 0xbb67ae8584caa73b);
            gen_guard_families(&mut f, &mut s, states, vars);
        }
        // Progress catch-alls, one per state, declared last so guarded
        // transitions shadow them in declaration order but a step input
        // can always be consumed.
        for i in 0..states {
            let v = r.gen_index(vars);
            s.push_str(&format!(
                "\tfrom S{} to S{} when P.step name Prog{}: begin \
                 v{} := (v{} + k) mod 53; output P.echo(k); end;\n",
                i,
                (i + 1) % states,
                i,
                v,
                v
            ));
        }
        // `Q` inputs are consumable in every state: by the enum family
        // in its state, by a catch-all everywhere else.
        if let Some(ef) = q_family_state {
            for i in (0..states).filter(|&i| i != ef) {
                s.push_str(&format!(
                    "\tfrom S{} to same when Q.step name QProg{}: begin end;\n",
                    i, i
                ));
            }
        }
        s.push_str("end;\nend.\n");
        s
    }

    /// A deterministic workload of `n` step inputs for this seed; with
    /// `any` families every third one arrives at `Q`.
    pub fn workload(&self, n: usize) -> Vec<ScriptedInput> {
        let mut r = SplitMix64::new(self.seed ^ 0x6a09e667f3bcc909);
        (0..n)
            .map(|i| {
                let ip = if self.any_families && i % 3 == 2 {
                    "Q"
                } else {
                    "P"
                };
                ScriptedInput::new(ip, "step", vec![Value::Int(r.gen_range_i64(0, 60))])
            })
            .collect()
    }
}

/// The `any` families of [`RandSpec::with_any_families`], all declared
/// before the catch-alls:
/// * `WF`, on a step input: `v = j` (or `j = v`) over a small range that
///   the globals do reach; its body also moves `u`;
/// * `SF`, spontaneous: `u = j`, with a body that sets `u` above the
///   range, so it cannot re-enable itself;
/// * `EF`, on a `Q` step input: `md = e` over the whole enum, so exactly
///   one instance is enabled in its state, whose index is returned;
/// * `DF`, spontaneous, two `any` variables: `v = j` repeats each key, so
///   it is not an equality run; its body falsifies its own guard.
fn gen_families(r: &mut SplitMix64, s: &mut String, states: usize, vars: usize) -> usize {
    let lo = r.gen_index(8);
    let hi = lo + 3 + r.gen_index(12);
    let v = r.gen_index(vars);
    let guard = if r.gen_index(2) == 0 {
        format!("v{} = j", v)
    } else {
        format!("j = v{}", v)
    };
    s.push_str(&format!(
        "\tfrom S{} to S{} when P.step any j : {}..{} do provided {} name WF: \
         begin v{} := (v{} + k) mod 53; u := (u + k) mod 20; end;\n",
        r.gen_index(states),
        r.gen_index(states),
        lo,
        hi,
        guard,
        v,
        v
    ));
    s.push_str(&format!(
        "\tfrom S{} to S{} any j : 0..19 do provided u = j name SF: \
         begin u := {}; end;\n",
        r.gen_index(states),
        r.gen_index(states),
        20 + r.gen_index(5)
    ));
    let ef = r.gen_index(states);
    s.push_str(&format!(
        "\tfrom S{} to S{} when Q.step any e : mode do provided md = e name EF: \
         begin md := m{}; end;\n",
        ef,
        r.gen_index(states),
        r.gen_index(6)
    ));
    let v = r.gen_index(vars);
    s.push_str(&format!(
        "\tfrom S{} to S{} any j : 0..9 do any q : 0..1 do provided v{} = j name DF: \
         begin v{} := 10 + q; end;\n",
        r.gen_index(states),
        r.gen_index(states),
        v,
        v
    ));
    ef
}

/// The families of [`RandSpec::with_family_guards`], all on a step input
/// so that each firing consumes one and the search drains; every body
/// reads its binding `j`:
/// * `RF`: `v < j`, a range compare whose instances are enabled together;
/// * `BF`: `j > c`, over the binding alone, so each instance's guard is a
///   constant, true for some instances and false for the others;
/// * `AF`: `(v >= j) and (j <> c)`, an `and`-chain of a global compare
///   and a binding-only term;
/// * `CF`: `near(v, j)`, a function call taking the binding.
fn gen_guard_families(r: &mut SplitMix64, s: &mut String, states: usize, vars: usize) {
    let families = [
        ("RF", format!("v{} < j", r.gen_index(vars))),
        ("BF", format!("j > {}", r.gen_index(6))),
        (
            "AF",
            format!("(v{} >= j) and (j <> {})", r.gen_index(vars), r.gen_index(6)),
        ),
        ("CF", format!("near(v{}, j)", r.gen_index(vars))),
    ];
    for (name, guard) in families {
        let v = r.gen_index(vars);
        s.push_str(&format!(
            "\tfrom S{} to S{} when P.step any j : 0..5 do provided {} name {}: \
             begin v{} := (v{} + j * k) mod 47; end;\n",
            r.gen_index(states),
            r.gen_index(states),
            guard,
            name,
            v,
            v
        ));
    }
}

/// A guard: either one comparison (the quick-guard shape) or an
/// `and`-chain of two or three, which runs the guard chunk. `with_k` allows
/// terms over the interaction parameter.
fn gen_guard(r: &mut SplitMix64, vars: usize, with_k: bool) -> String {
    let terms = 1 + r.gen_index(3); // 1..=3
    let mut parts = Vec::new();
    for _ in 0..terms {
        parts.push(gen_term(r, vars, with_k));
    }
    if parts.len() == 1 {
        parts.pop().unwrap()
    } else {
        parts
            .iter()
            .map(|p| format!("({})", p))
            .collect::<Vec<_>>()
            .join(" and ")
    }
}

fn gen_term(r: &mut SplitMix64, vars: usize, with_k: bool) -> String {
    let ops = ["=", "<>", "<", "<=", ">", ">="];
    let op = ops[r.gen_index(ops.len())];
    let c = r.gen_range_i64(0, 40);
    if with_k && r.gen_index(4) == 0 {
        // `k mod 2 = 0`-style terms force frame loads in the guard.
        format!("k mod {} {} {}", 2 + r.gen_index(3), op, r.gen_index(3))
    } else {
        format!("v{} {} {}", r.gen_index(vars), op, c)
    }
}

/// A body of one to three statements over the globals. Every assignment
/// is `mod`-bounded so values stay small and overflow-free regardless of
/// workload length. `with_k` allows reading the interaction parameter.
fn gen_body(r: &mut SplitMix64, vars: usize, with_k: bool) -> String {
    let stmts = 1 + r.gen_index(3); // 1..=3
    let mut out = Vec::new();
    for _ in 0..stmts {
        let a = r.gen_index(vars);
        let b = r.gen_index(vars);
        let m = 17 + r.gen_index(40) as i64;
        match r.gen_index(if with_k { 5 } else { 4 }) {
            0 => out.push(format!("v{} := (v{} + v{} * 2) mod {}", a, a, b, m)),
            1 => out.push(format!(
                "if v{} > v{} then v{} := (v{} - 1) mod {} else v{} := (v{} + 2) mod {}",
                a, b, a, a, m, b, b, m
            )),
            2 => out.push(format!(
                "case v{} mod 3 of 0 : v{} := v{} div 2; 1 : v{} := v{} + 1 \
                 else v{} := 0 end",
                a, b, b, b, b, b
            )),
            3 => out.push(format!("v{} := (v{} * 3 + {}) mod {}", a, b, r.gen_index(7), m)),
            _ => out.push(format!("v{} := (v{} + k) mod {}", a, a, m)),
        }
    }
    let mut s = out.join("; ");
    s.push(';');
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use tango::{AnalysisOptions, ChoicePolicy, Tango, Verdict};

    #[test]
    fn family_specs_build_and_self_analyze_valid() {
        for seed in 0..20 {
            let spec = RandSpec::with_any_families(seed);
            let src = spec.source();
            let analyzer = Tango::generate(&src)
                .unwrap_or_else(|e| panic!("seed {}: invalid spec: {}\n{}", seed, e, src));
            let trace = analyzer
                .generate_trace(&spec.workload(8), ChoicePolicy::First, 100_000)
                .unwrap_or_else(|e| panic!("seed {}: workload stuck: {}\n{}", seed, e, src));
            let r = analyzer
                .analyze(&trace, &AnalysisOptions::default())
                .unwrap();
            assert_eq!(r.verdict, Verdict::Valid, "seed {}: self-trace", seed);
        }
    }

    #[test]
    fn family_guard_specs_build_and_self_analyze_valid() {
        for seed in 0..20 {
            let spec = RandSpec::with_family_guards(seed);
            let src = spec.source();
            let analyzer = Tango::generate(&src)
                .unwrap_or_else(|e| panic!("seed {}: invalid spec: {}\n{}", seed, e, src));
            let trace = analyzer
                .generate_trace(&spec.workload(8), ChoicePolicy::First, 100_000)
                .unwrap_or_else(|e| panic!("seed {}: workload stuck: {}\n{}", seed, e, src));
            let r = analyzer
                .analyze(&trace, &AnalysisOptions::default())
                .unwrap();
            assert_eq!(r.verdict, Verdict::Valid, "seed {}: self-trace", seed);
        }
    }

    #[test]
    fn family_guards_leave_the_other_sources_unchanged() {
        // The extra families come from their own random stream: removing
        // them (and the function they call) gives the family spec back.
        for seed in 0..20 {
            let plain = RandSpec::with_any_families(seed).source();
            let extended = RandSpec::with_family_guards(seed).source();
            let kept: Vec<&str> = extended
                .lines()
                .filter(|l| {
                    ![" name RF:", " name BF:", " name AF:", " name CF:", "near"]
                        .iter()
                        .any(|m| l.contains(m))
                })
                .collect();
            assert_eq!(kept.join("\n") + "\n", plain, "seed {}", seed);
        }
    }

    #[test]
    fn sources_are_deterministic_per_seed() {
        assert_eq!(RandSpec::new(7).source(), RandSpec::new(7).source());
        assert_ne!(RandSpec::new(7).source(), RandSpec::new(8).source());
        assert_eq!(
            format!("{:?}", RandSpec::new(7).workload(5)),
            format!("{:?}", RandSpec::new(7).workload(5))
        );
    }

    #[test]
    fn generated_specs_build_and_self_analyze_valid() {
        for seed in 0..20 {
            let spec = RandSpec::new(seed);
            let src = spec.source();
            let analyzer = Tango::generate(&src)
                .unwrap_or_else(|e| panic!("seed {}: invalid spec: {}\n{}", seed, e, src));
            let trace = analyzer
                .generate_trace(&spec.workload(8), ChoicePolicy::First, 100_000)
                .unwrap_or_else(|e| panic!("seed {}: workload stuck: {}", seed, e));
            let r = analyzer.analyze(&trace, &AnalysisOptions::default()).unwrap();
            assert_eq!(r.verdict, Verdict::Valid, "seed {}: self-trace", seed);
        }
    }
}
