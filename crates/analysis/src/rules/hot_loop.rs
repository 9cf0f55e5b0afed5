//! Rule `per-bit-hot-loop`: no bit-at-a-time iteration in the
//! transition-counting hot modules. The whole measurement stack is
//! word-parallel (`PayloadBits` word ops, SWAR popcounts, the bulk
//! codec-lane run kernels); a per-bit loop there is a 64x regression
//! hiding in plain sight. Two shapes are hunted:
//!
//! * `.iter_bits(` calls — the explicit per-bit iterator (fine in
//!   tests and figure code, not on the measurement path);
//! * `for _ in 0..<bit-width bound>` index loops — a range bound that
//!   names a width/bit count walks wires one by one. Word-granular
//!   bounds (`width.div_ceil(64)`, `words_used()`, `step_by(64)`) are
//!   not findings.
//!
//! `#[cfg(test)]` regions are out of scope (oracles may walk bits by
//! design); genuinely per-wire outputs (e.g. per-bit-position
//! histograms) carry reasoned allows.

use crate::lexer::{cfg_test_regions, in_regions, lex, TokKind};
use crate::report::Report;
use crate::rules::emit;
use crate::source::Workspace;

/// The transition-counting hot modules: the simulator, the analytic
/// replay, the per-link accumulators, the link codecs, the word-level
/// transition kernels, and the Table I stream kernel.
pub const HOT_LOOP_PATHS: &[&str] = &[
    "crates/noc/src/sim.rs",
    "crates/noc/src/analytic.rs",
    "crates/noc/src/stats.rs",
    "crates/bits/src/stats.rs",
    "crates/bits/src/transition.rs",
    "crates/core/src/codec.rs",
    "crates/core/src/stream.rs",
];

/// Identifiers that mark a range bound as counting bits/wires.
fn is_bit_bound_ident(text: &str) -> bool {
    let lower = text.to_ascii_lowercase();
    lower.contains("width") || lower.contains("bit")
}

/// Identifiers that mark a range bound as word-granular after all.
const WORD_GRANULAR: &[&str] = &["div_ceil", "words_used", "words", "step_by"];

pub fn check(ws: &Workspace, report: &mut Report) {
    for file in ws.under(HOT_LOOP_PATHS) {
        if file.ext() != "rs" {
            continue;
        }
        let toks = lex(&file.text);
        let test_regions = cfg_test_regions(&toks);
        let code: Vec<_> = toks
            .iter()
            .filter(|t| !matches!(t.kind, TokKind::LineComment | TokKind::BlockComment))
            .collect();
        for (i, tok) in code.iter().enumerate() {
            if tok.kind != TokKind::Ident || in_regions(&test_regions, tok.line) {
                continue;
            }
            if tok.text == "iter_bits" {
                // `.iter_bits(` — a call, not the definition.
                let prev = i.checked_sub(1).and_then(|p| code.get(p));
                let next = code.get(i + 1);
                if prev.is_some_and(|p| p.is_punct('.')) && next.is_some_and(|n| n.is_punct('(')) {
                    emit(
                        report,
                        file,
                        "per-bit-hot-loop",
                        tok.line,
                        "`.iter_bits()` in a hot path — use the word-parallel kernels \
                         (PayloadBits word ops / SWAR popcounts), or add a reasoned allow"
                            .to_string(),
                    );
                }
                continue;
            }
            if tok.text != "for" {
                continue;
            }
            // `for <pat> in 0 .. <bound...> {` with a bit-width bound.
            // The pattern is short in all real code; scan a bounded
            // window for `in 0 ..`, then classify the bound tokens up
            // to the loop body brace.
            let Some(in_at) = (i + 1..(i + 5).min(code.len())).find(|&j| code[j].is_ident("in"))
            else {
                continue;
            };
            let is_zero_range = code.get(in_at + 1).is_some_and(|t| t.text == "0")
                && code.get(in_at + 2).is_some_and(|t| t.is_punct('.'))
                && code.get(in_at + 3).is_some_and(|t| t.is_punct('.'));
            if !is_zero_range {
                continue;
            }
            let bound: Vec<_> = code[in_at + 4..]
                .iter()
                .take(12)
                .take_while(|t| !t.is_punct('{'))
                .collect();
            let counts_bits = bound
                .iter()
                .any(|t| t.kind == TokKind::Ident && is_bit_bound_ident(&t.text));
            let word_granular = bound
                .iter()
                .any(|t| t.kind == TokKind::Ident && WORD_GRANULAR.contains(&t.text.as_str()));
            if counts_bits && !word_granular {
                emit(
                    report,
                    file,
                    "per-bit-hot-loop",
                    tok.line,
                    "per-wire index loop in a hot path — the bound counts bits; process \
                     whole words (`div_ceil(64)` / `words_used`) or add a reasoned allow"
                        .to_string(),
                );
            }
        }
    }
}
