//! Robustness: no input may panic the frontend. Errors are fine —
//! crashes are not. This is the fuzzing contract for a tool whose input
//! is arbitrary user-written Estelle.
//!
//! Formerly `proptest`-based; now deterministic seeded sweeps (the
//! workspace builds offline with no registry dependencies).

use estelle_frontend::{analyze, parse_specification};

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
}

fn arb_text(rng: &mut Rng, max_len: usize) -> String {
    // Printable ASCII plus the token soup most likely to confuse an
    // Estelle lexer, plus some multibyte characters.
    const EXTRA: &[&str] = &[
        "specification", "end", "begin", "trans", "..", ":=", "^", "§", "λ", "\t", "\n", "{",
        "}", "(*", "*)",
    ];
    let len = rng.index(max_len + 1);
    let mut out = String::new();
    for _ in 0..len {
        if rng.index(8) == 0 {
            out.push_str(EXTRA[rng.index(EXTRA.len())]);
        } else {
            out.push((b' ' + rng.index(95) as u8) as char);
        }
    }
    out
}

/// Arbitrary printable garbage never panics the lexer/parser/sema.
#[test]
fn arbitrary_text_never_panics() {
    for seed in 0..512u64 {
        let text = arb_text(&mut Rng(seed), 400);
        let _ = analyze(&text);
    }
}

/// Arbitrary bytes interpreted as (lossy) UTF-8 never panic either.
#[test]
fn arbitrary_bytes_never_panic() {
    for seed in 0..512u64 {
        let mut rng = Rng(seed);
        let bytes: Vec<u8> = (0..rng.index(400)).map(|_| rng.next() as u8).collect();
        let text = String::from_utf8_lossy(&bytes);
        let _ = analyze(&text);
    }
}

/// Mutations of a valid specification — deletions, duplications,
/// splices — never panic; they parse, fail to parse, or fail sema.
#[test]
fn mutated_valid_specs_never_panic() {
    const BASE: &str = r#"
        specification mutant;
        const max = 7;
        type seq = 0..7;
        channel C(env, m);
            by env: put(n : seq);
            by m: got(n : seq);
        end;
        module M process; ip P : C(m); end;
        body MB for M;
            var total : integer;
            state S1, S2;
            initialize to S1 begin total := 0 end;
            trans
            from S1 to S2 when P.put provided n < max name T1:
            begin
                total := total + n;
                output P.got(n);
            end;
            from S2 to S1 name T2: begin output P.got(0) end;
        end;
        end.
    "#;
    for seed in 0..512u64 {
        let mut rng = Rng(seed);
        let cut_start = rng.index(600);
        let cut_len = rng.index(120);
        let splice = arb_text(&mut rng, 30);
        let mut text = BASE.to_string();
        let start = cut_start.min(text.len());
        let end = (start + cut_len).min(text.len());
        // Keep the cut on char boundaries.
        let start = (0..=start).rev().find(|&i| text.is_char_boundary(i)).unwrap();
        let end = (end..=text.len()).find(|&i| text.is_char_boundary(i)).unwrap();
        text.replace_range(start..end, &splice);
        let _ = analyze(&text);
    }
}

/// Deeply nested expressions must not blow the parser stack.
#[test]
fn deep_nesting_is_rejected_or_parsed_without_crash() {
    for depth in (0usize..600).step_by(23) {
        let expr = format!("{}{}{}", "(".repeat(depth), "1", ")".repeat(depth));
        let src = format!(
            "specification d; module M process; end; body B for M; \
             var x : integer; state S; initialize to S begin x := {} end; end; end.",
            expr
        );
        let _ = parse_specification(&src);
    }
}

/// Ordinal ranges whose size overflows `i64` end in a spanned sema error:
/// `hi - lo + 1` must be computed without wrapping, or a full-range `any`
/// counts as 0 values and expands forever.
#[test]
fn ranges_wider_than_i64_are_spanned_errors() {
    const RANGES: &[&str] = &[
        "-5..9223372036854775807",
        "0..9223372036854775807",
        "-9223372036854775807-1..9223372036854775807",
    ];
    for range in RANGES {
        for (decl, trans, what) in [
            ("", format!("any k : {} do", range), "`any` domain too large"),
            (
                &*format!("a : array [{}] of integer;", range),
                String::new(),
                "array too large",
            ),
            (
                &*format!("s : set of {};", range),
                String::new(),
                "set base range too large",
            ),
        ] {
            let src = format!(
                "specification w; module M process; end; body B for M; \
                 var n : integer; {} state S; initialize to S begin n := 0 end; \
                 trans from S to S {} name W: begin n := 1 end; end; end.",
                decl, trans
            );
            let err = analyze(&src).expect_err(&src);
            assert!(err.message.starts_with(what), "{}: {}", src, err.message);
            assert!(err.span.end > err.span.start, "{}: unspanned", src);
        }
    }
}
