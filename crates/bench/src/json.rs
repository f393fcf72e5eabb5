//! The one JSON writer behind every artifact the bench binaries emit:
//! `BENCH_*.json`, `PROFILE_*.json` and the fuzz `--coverage-json`
//! report.
//!
//! A binary builds a [`Json`] value and calls [`Json::render`]. This
//! module alone decides escaping, separators, indentation, printed
//! float precision ([`Json::Fixed`]) and how a non-finite float prints
//! (`null`: JSON has no NaN or infinity). Layout: a container whose
//! members are all scalars prints on one line (`{"a": 1, "b": 2.50}`);
//! any other container puts one member per line, indented two spaces
//! per level.
//!
//! The library crates' reports ([`CompileReport`], [`ExecProfile`],
//! [`CampaignReport`]) are serialized here too, through `From` impls,
//! so no library crate writes JSON.

use std::fmt::Write;

use r2c_core::CompileReport;
use r2c_fuzz::{summarize_divergences, CampaignReport};
use r2c_vm::{ExecProfile, TraceEvent};

/// Builds a [`Json::Obj`] from `"key": value` members, in order; each
/// value goes through `Json::from`:
///
/// ```
/// use r2c_bench::{json::Json, obj};
/// let row = obj! { "name": "gcc", "mips": Json::Fixed(171.06, 1), "seed": 7u64 };
/// assert_eq!(row.render(), "{\"name\": \"gcc\", \"mips\": 171.1, \"seed\": 7}\n");
/// ```
#[macro_export]
macro_rules! obj {
    ($($key:literal : $value:expr),* $(,)?) => {
        $crate::json::Json::Obj(vec![$(($key.to_string(), $crate::json::Json::from($value))),*])
    };
}

/// A JSON value. Objects keep their members in insertion order.
#[derive(Debug)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// An unsigned integer.
    UInt(u64),
    /// A float printed with the given number of decimals; `null` when
    /// not finite.
    Fixed(f64, usize),
    /// A string (escaped on rendering).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, members in order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An array of `items`.
    pub fn arr(items: impl IntoIterator<Item = Json>) -> Json {
        Json::Arr(items.into_iter().collect())
    }

    /// The pretty-printed document, newline-terminated.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn is_scalar(&self) -> bool {
        !matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => write!(out, "{b}").unwrap(),
            Json::UInt(n) => write!(out, "{n}").unwrap(),
            Json::Fixed(x, d) if x.is_finite() => write!(out, "{x:.d$}").unwrap(),
            Json::Fixed(..) => out.push_str("null"),
            Json::Str(s) => escape_into(out, s),
            Json::Arr(items) => {
                write_members(out, depth, ('[', ']'), items.iter().map(|v| (None, v)))
            }
            Json::Obj(members) => write_members(
                out,
                depth,
                ('{', '}'),
                members.iter().map(|(k, v)| (Some(k.as_str()), v)),
            ),
        }
    }
}

fn write_members<'a, I>(out: &mut String, depth: usize, (open, close): (char, char), members: I)
where
    I: Iterator<Item = (Option<&'a str>, &'a Json)> + Clone,
{
    // Vacuously true for an empty container, which prints as `[]`/`{}`.
    let inline = members.clone().all(|(_, v)| v.is_scalar());
    out.push(open);
    for (i, (key, value)) in members.enumerate() {
        if i > 0 {
            out.push(',');
        }
        if !inline {
            out.push('\n');
            out.push_str(&"  ".repeat(depth + 1));
        } else if i > 0 {
            out.push(' ');
        }
        if let Some(key) = key {
            escape_into(out, key);
            out.push_str(": ");
        }
        value.write(out, depth + 1);
    }
    if !inline {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(close);
}

fn escape_into(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

macro_rules! from_uint {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(n: $t) -> Json {
                Json::UInt(n as u64)
            }
        }
    )*};
}
from_uint!(u32, u64, usize);

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Json {
        v.map_or(Json::Null, Into::into)
    }
}

impl From<&CompileReport> for Json {
    fn from(r: &CompileReport) -> Json {
        let passes = r
            .passes
            .iter()
            .map(|p| obj! { "pass": p.pass, "wall_us": p.wall_us });
        let funcs = r.funcs.iter().map(|f| {
            obj! {
                "name": f.name.as_str(), "kind": f.kind, "insns": f.insns, "bytes": f.bytes,
                "nops": f.nops, "traps": f.traps, "btdp_stores": f.btdp_stores,
                "btra_sites": f.btra_sites,
            }
        });
        obj! {
            "seed": r.seed,
            "total_wall_us": r.total_wall_us(),
            "passes": Json::arr(passes),
            "prelink_text_bytes": r.prelink_text_bytes,
            "image_text_bytes": r.image_text_bytes,
            "link_growth_bytes": r.link_growth_bytes(),
            "image_insns": r.image_insns,
            "booby_traps": r.booby_traps,
            "funcs": Json::arr(funcs),
        }
    }
}

impl From<&ExecProfile> for Json {
    fn from(p: &ExecProfile) -> Json {
        let (t, h) = (&p.totals, &p.heap);
        let funcs = p.funcs.iter().map(|f| {
            obj! {
                "name": f.name.as_str(), "self_cycles_deci": f.self_cycles,
                "instructions": f.instructions, "icache_misses": f.icache_misses, "calls": f.calls,
            }
        });
        let folded = p.folded.iter().map(|(stack, cycles)| {
            obj! { "stack": stack.as_str(), "cycles_deci": *cycles }
        });
        let timeline = h.timeline.iter().map(|s| {
            obj! {
                "instructions": s.instructions, "live_bytes": s.live_bytes,
                "resident_pages": s.resident_pages,
            }
        });
        obj! {
            "totals": obj! {
                "instructions": t.instructions, "cycles_deci": t.cycles, "calls": t.calls,
                "native_calls": t.native_calls, "rets": t.rets, "icache_misses": t.icache_misses,
                "icache_hits": t.icache_hits, "max_rss_pages": t.max_rss_pages,
                "avx_transitions": t.avx_transitions,
            },
            "functions": Json::arr(funcs),
            "folded": Json::arr(folded),
            "heap": obj! {
                "allocs": h.allocs, "frees": h.frees, "peak_live_bytes": h.peak_live_bytes,
                "peak_resident_pages": h.peak_resident_pages, "end_live_bytes": h.end_live_bytes,
                "end_resident_pages": h.end_resident_pages, "released_pages": h.released_pages,
                "quarantined_pages": h.quarantined_pages, "timeline": Json::arr(timeline),
            },
            "events": Json::arr(p.events.iter().map(event)),
            "dropped_events": p.dropped_events,
        }
    }
}

fn event(e: &TraceEvent) -> Json {
    match e {
        TraceEvent::Call { at, target } => obj! { "kind": "call", "at": *at, "target": *target },
        TraceEvent::Ret { at } => obj! { "kind": "ret", "at": *at },
        TraceEvent::Alloc { ptr, size } => obj! { "kind": "alloc", "ptr": *ptr, "size": *size },
        TraceEvent::Free { ptr } => obj! { "kind": "free", "ptr": *ptr },
        TraceEvent::Protect { addr, len, perms } => {
            obj! { "kind": "protect", "addr": *addr, "len": *len, "perms": perms.to_string() }
        }
        TraceEvent::Fault { desc } => obj! { "kind": "fault", "desc": desc.as_str() },
    }
}

impl From<&CampaignReport> for Json {
    fn from(r: &CampaignReport) -> Json {
        let divergences = r.divergences.iter().map(|d| {
            obj! { "case_index": d.case_index, "summary": summarize_divergences(&d.divergences) }
        });
        let curve = r
            .curve
            .iter()
            .map(|p| Json::arr([p.case_index.into(), p.population.into()]));
        obj! {
            "cases_run": r.cases_run,
            "passed": r.passed,
            "skipped": r.skipped,
            "mutated_cases": r.mutated_cases,
            "admitted": r.admitted,
            "seed_corpus_population": r.seed_corpus_population,
            "population": r.population,
            "first_divergence_case": r.first_divergence_case,
            "divergences": Json::arr(divergences),
            "curve": Json::arr(curve),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: &str) -> Json {
        v.into()
    }

    #[test]
    fn escaping_handles_specials() {
        assert_eq!(s("a\"b\\c\nd").render(), "\"a\\\"b\\\\c\\nd\"\n");
        assert_eq!(s("\u{1}").render(), "\"\\u0001\"\n");
        assert_eq!(s("t\tr\r").render(), "\"t\\tr\\r\"\n");
        // Keys go through the same escaping as values.
        assert_eq!(obj! { "k\"": Json::Null }.render(), "{\"k\\\"\": null}\n");
    }

    #[test]
    fn empty_containers_stay_on_one_line() {
        assert_eq!(Json::arr([]).render(), "[]\n");
        assert_eq!(obj! {}.render(), "{}\n");
        assert_eq!(
            obj! { "a": Json::arr([]), "b": obj! {} }.render(),
            "{\n  \"a\": [],\n  \"b\": {}\n}\n"
        );
    }

    #[test]
    fn nested_containers_indent_and_scalar_rows_inline() {
        let doc = obj! {
            "name": "x",
            "rows": Json::arr([obj! { "a": 1u64, "b": true }, Json::arr([2u64.into(), Json::Null])]),
        };
        assert_eq!(
            doc.render(),
            "{\n  \"name\": \"x\",\n  \"rows\": [\n    {\"a\": 1, \"b\": true},\n    [2, null]\n  ]\n}\n"
        );
    }

    #[test]
    fn object_members_keep_insertion_order() {
        let doc = obj! { "z": 1u64, "a": 2u64, "m": 3u64 };
        assert_eq!(doc.render(), "{\"z\": 1, \"a\": 2, \"m\": 3}\n");
    }

    #[test]
    fn floats_print_fixed_precision() {
        assert_eq!(Json::Fixed(1.0 / 3.0, 3).render(), "0.333\n");
        assert_eq!(Json::Fixed(2.5, 1).render(), "2.5\n");
        assert_eq!(Json::Fixed(1234.56, 0).render(), "1235\n");
        assert_eq!(Json::Fixed(-0.04, 4).render(), "-0.0400\n");
    }

    #[test]
    fn non_finite_floats_render_as_null() {
        for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(Json::Fixed(x, 3).render(), "null\n");
        }
        assert_eq!(
            Json::arr([Json::Fixed(f64::NAN, 2), Json::Fixed(1.0, 2)]).render(),
            "[null, 1.00]\n"
        );
    }

    #[test]
    fn options_map_to_null() {
        assert_eq!(Json::from(None::<u64>).render(), "null\n");
        assert_eq!(Json::from(Some(7u64)).render(), "7\n");
    }
}
