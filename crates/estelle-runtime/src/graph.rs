//! Graphviz export of the compiled EFSM.
//!
//! Renders the compiled transition system as a `dot` digraph: one node
//! per FSM state (the initial state double-circled), one edge per
//! compiled transition, labelled with its name, input clause, guard
//! presence and the interactions its body can emit. Useful for reviewing
//! a specification before trusting it as a trace-analysis oracle:
//!
//! ```sh
//! tango graph spec.est | dot -Tsvg > spec.svg
//! ```

use crate::compile::CompiledModule;
use crate::ir::CStmt;
use std::collections::BTreeSet;
use std::fmt::Write;

/// Render the module as Graphviz `dot` text.
pub fn to_dot(module: &CompiledModule) -> String {
    render(module, None)
}

/// Render the module with a per-transition heat overlay: `weights` maps
/// each compiled transition id to a hotness in `[0, 1]` (edge color
/// interpolates gray → red and the pen widens with heat), and
/// `annotations` adds one extra label line per transition (empty strings
/// are skipped). Both slices are indexed by compiled transition id;
/// missing entries render unheated. `executor` names the executor that
/// produced the profile (`"compiled"` or `"interp"`) and is stamped into
/// the graph caption so A/B overlays are never confused for one another.
/// This is the profile overlay behind `tango analyze --profile-dot`.
pub fn to_dot_with_heat(
    module: &CompiledModule,
    weights: &[f64],
    annotations: &[String],
    executor: &str,
) -> String {
    render(module, Some((weights, annotations, executor)))
}

fn render(module: &CompiledModule, heat: Option<(&[f64], &[String], &str)>) -> String {
    let m = &module.analyzed;
    let mut out = String::new();
    writeln!(out, "digraph {} {{", sanitize(&m.module_name)).unwrap();
    writeln!(out, "  rankdir=LR;").unwrap();
    if let Some((_, _, executor)) = heat {
        writeln!(
            out,
            "  label=\"transition profile (exec={})\"; labelloc=t;",
            executor.replace('"', "\\\"")
        )
        .unwrap();
    }
    writeln!(out, "  node [shape=circle, fontname=\"monospace\"];").unwrap();
    writeln!(out, "  edge [fontname=\"monospace\", fontsize=10];").unwrap();

    for (i, name) in m.states.iter().enumerate() {
        let shape = if i == module.init_to.0 as usize {
            "doublecircle"
        } else {
            "circle"
        };
        writeln!(out, "  s{} [label=\"{}\", shape={}];", i, name, shape).unwrap();
    }

    for idx in 0..module.transition_count() {
        let t = module.family(idx);
        let mut label = module.transition_name(idx).into_owned();
        if let Some((ip, interaction, _)) = t.when {
            write!(
                label,
                "\\nwhen {}.{}",
                m.ips[ip].name, m.ips[ip].inputs[interaction].name
            )
            .unwrap();
        }
        if t.provided.is_some() {
            label.push_str("\\n[guarded]");
        }
        let outputs = body_outputs(module, &t.body);
        if !outputs.is_empty() {
            write!(
                label,
                "\\n/ {}",
                outputs.into_iter().collect::<Vec<_>>().join(", ")
            )
            .unwrap();
        }
        let mut extra = String::new();
        if let Some((weights, annotations, _)) = heat {
            if let Some(a) = annotations.get(idx) {
                if !a.is_empty() {
                    write!(label, "\\n{}", a).unwrap();
                }
            }
            let w = weights.get(idx).copied().unwrap_or(0.0).clamp(0.0, 1.0);
            write!(
                extra,
                ", color=\"{}\", penwidth={:.2}",
                heat_color(w),
                1.0 + 3.0 * w
            )
            .unwrap();
        }
        for &from in &t.from {
            let to = t.to.unwrap_or(from);
            writeln!(
                out,
                "  s{} -> s{} [label=\"{}\"{}];",
                from.0,
                to.0,
                label.replace('"', "\\\""),
                extra
            )
            .unwrap();
        }
    }

    out.push_str("}\n");
    out
}

/// Linear gray → red ramp for heat weight `w` in `[0, 1]`.
fn heat_color(w: f64) -> String {
    let lerp = |a: u8, b: u8| (a as f64 + w * (b as f64 - a as f64)).round() as u8;
    format!(
        "#{:02x}{:02x}{:02x}",
        lerp(0xb0, 0xd6),
        lerp(0xb0, 0x27),
        lerp(0xb0, 0x28)
    )
}

/// `ip.interaction` pairs an IR block may emit, in stable order.
fn body_outputs(module: &CompiledModule, body: &[CStmt]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    collect_outputs(module, body, &mut out);
    out
}

fn collect_outputs(module: &CompiledModule, body: &[CStmt], out: &mut BTreeSet<String>) {
    let m = &module.analyzed;
    for s in body {
        match s {
            CStmt::Output { ip, interaction, .. } => {
                out.insert(format!(
                    "{}.{}",
                    m.ips[*ip].name, m.ips[*ip].outputs[*interaction].name
                ));
            }
            CStmt::If(_, a, b, _) => {
                collect_outputs(module, a, out);
                collect_outputs(module, b, out);
            }
            CStmt::While(_, b, _) | CStmt::Repeat(b, _, _) => collect_outputs(module, b, out),
            CStmt::For { body, .. } => collect_outputs(module, body, out),
            CStmt::Case {
                arms, else_arm, ..
            } => {
                for (_, b) in arms {
                    collect_outputs(module, b, out);
                }
                if let Some(b) = else_arm {
                    collect_outputs(module, b, out);
                }
            }
            CStmt::Call(call) => {
                // Routines may emit too.
                collect_outputs(module, &module.routines[call.routine].body, out);
            }
            _ => {}
        }
    }
}

fn sanitize(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if s.chars().next().is_none_or(|c| c.is_ascii_digit()) {
        s.insert(0, '_');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::Machine;

    #[test]
    fn dot_contains_states_and_labeled_edges() {
        let m = Machine::from_source(
            r#"
            specification g;
            channel C(env, m); by env: ping; by m: pong; end;
            module M process; ip P : C(m); end;
            body MB for M;
                var n : integer;
                state Idle, Busy;
                initialize to Idle begin n := 0 end;
                trans
                from Idle to Busy when P.ping provided n = 0 name Go:
                    begin output P.pong end;
                from Busy to Idle name Back:
                    begin n := 0; output P.pong end;
            end;
            end.
            "#,
        )
        .unwrap();
        let dot = to_dot(&m.module);
        assert!(dot.starts_with("digraph M {"));
        assert!(dot.contains("label=\"Idle\", shape=doublecircle"));
        assert!(dot.contains("label=\"Busy\", shape=circle"));
        assert!(dot.contains("s0 -> s1"));
        assert!(dot.contains("when P.ping"));
        assert!(dot.contains("[guarded]"));
        assert!(dot.contains("/ P.pong"));
    }

    #[test]
    fn outputs_inside_routines_are_attributed() {
        let m = Machine::from_source(
            r#"
            specification g;
            channel C(env, m); by env: ping; by m: pong; end;
            module M process; ip P : C(m); end;
            body MB for M;
                procedure reply; begin output P.pong end;
                state S;
                initialize to S begin end;
                trans
                from S to S when P.ping name Hit: begin reply end;
            end;
            end.
            "#,
        )
        .unwrap();
        let dot = to_dot(&m.module);
        assert!(dot.contains("/ P.pong"));
    }

    #[test]
    fn heat_overlay_colors_and_annotates_edges() {
        let m = Machine::from_source(
            r#"
            specification g;
            channel C(env, m); by env: ping; by m: pong; end;
            module M process; ip P : C(m); end;
            body MB for M;
                state Idle, Busy;
                initialize to Idle begin end;
                trans
                from Idle to Busy when P.ping name Go: begin output P.pong end;
                from Busy to Idle name Back: begin end;
            end;
            end.
            "#,
        )
        .unwrap();
        let dot = to_dot_with_heat(
            &m.module,
            &[1.0, 0.0],
            &["9 fired, 1 failed, 3.0ms".to_string(), String::new()],
            "compiled",
        );
        // Hottest edge: full red, widest pen, annotated label line.
        assert!(dot.contains("color=\"#d62728\", penwidth=4.00"), "{}", dot);
        assert!(dot.contains("9 fired, 1 failed, 3.0ms"), "{}", dot);
        // Cold edge: base gray, base pen, no annotation.
        assert!(dot.contains("color=\"#b0b0b0\", penwidth=1.00"), "{}", dot);
        // The caption names the executor that produced the profile.
        assert!(
            dot.contains("transition profile (exec=compiled)"),
            "{}",
            dot
        );
        // The plain exporter is unchanged by the overlay machinery.
        assert!(!to_dot(&m.module).contains("penwidth"));
        assert!(!to_dot(&m.module).contains("labelloc"));
    }

    #[test]
    fn to_same_renders_self_loop() {
        let m = Machine::from_source(
            r#"
            specification g;
            channel C(env, m); by env: tick; end;
            module M process; ip P : C(m); end;
            body MB for M;
                state A, B;
                initialize to A begin end;
                trans
                from A, B to same when P.tick name Loop: begin end;
            end;
            end.
            "#,
        )
        .unwrap();
        let dot = to_dot(&m.module);
        assert!(dot.contains("s0 -> s0"));
        assert!(dot.contains("s1 -> s1"));
    }
}
