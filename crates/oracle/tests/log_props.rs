//! Property tests for the log text format: round-trips through
//! format/parse and through the streaming reader.

use rand::rngs::StdRng;
use rand::Rng;
use rtic_history::log::{format_log, parse_log, LogReader};
use rtic_history::Transition;
use rtic_oracle::generate::{case, GenConfig, HistoryBias};
use rtic_oracle::property::{chars, check, vec_of, Shrink};
use rtic_relation::{Tuple, Update, Value};

/// The characters that stress the escaping code.
const STRING_CHARS: &str = "abcdefghijklmnopqrstuvwxyz\"\\\n ,()@|#0123456789";
const NAME_START: &str = "abcdefghijklmnopqrstuvwxyz_";
const NAME_REST: &str = "abcdefghijklmnopqrstuvwxyz0123456789_";

/// A value as drawn: a string is its characters, so it shrinks.
#[derive(Clone, Debug)]
enum Val {
    Int(i64),
    Bool(bool),
    Str(Vec<char>),
}

impl Shrink for Val {
    fn shrink(&mut self, fails: &mut dyn FnMut(&Val) -> bool) {
        if let Val::Str(chars) = self {
            chars.shrink(&mut |c| fails(&Val::Str(c.clone())));
        }
    }
}

/// One tuple change: relation name (first character and the rest),
/// insert or delete, and the tuple.
type Change = ((char, Vec<char>), bool, Vec<Val>);

/// Steps of a stream: the clock gap and the changes.
type Steps = Vec<(u64, Vec<Change>)>;

fn value(rng: &mut StdRng) -> Val {
    match rng.gen_range(0..3) {
        0 => Val::Int(match rng.gen_range(0..8) {
            0 => 0,
            1 => i64::MAX,
            2 => i64::MIN,
            3 => 1,
            _ => rng.gen_range(i64::MIN..=i64::MAX),
        }),
        1 => Val::Bool(rng.gen_range(0..2) == 1),
        _ => Val::Str(chars(rng, STRING_CHARS, 0..13)),
    }
}

fn steps(rng: &mut StdRng) -> Steps {
    vec_of(rng, 0..10, |r| {
        let gap = r.gen_range(1..5);
        let changes = vec_of(r, 0..4, |r| {
            let name = (chars(r, NAME_START, 1..2)[0], chars(r, NAME_REST, 0..7));
            let insert = r.gen_range(0..2) == 1;
            (name, insert, vec_of(r, 0..4, value))
        });
        (gap, changes)
    })
}

fn transitions(steps: &Steps) -> Vec<Transition> {
    let mut t = 0u64;
    steps
        .iter()
        .map(|(gap, changes)| {
            t += gap;
            let mut u = Update::new();
            for ((first, rest), insert, vals) in changes {
                let rel: String = std::iter::once(first).chain(rest).collect();
                let tuple = Tuple::new(vals.iter().map(|v| match v {
                    Val::Int(i) => Value::Int(*i),
                    Val::Bool(b) => Value::Bool(*b),
                    Val::Str(s) => Value::str(&s.iter().collect::<String>()),
                }));
                if *insert {
                    u.insert(rel.as_str(), tuple);
                } else {
                    u.delete(rel.as_str(), tuple);
                }
            }
            Transition::new(t, u)
        })
        .collect()
}

#[test]
fn format_parse_round_trip() {
    check(2, 256, steps, |s| {
        let ts = transitions(s);
        let text = format_log(&ts);
        let back = parse_log(&text)
            .unwrap_or_else(|e| panic!("formatted log failed to parse: {e}\n{text}"));
        assert_eq!(back, ts);
    });
}

#[test]
fn streaming_matches_batch() {
    check(3, 256, steps, |s| {
        let text = format_log(&transitions(s));
        let streamed: Result<Vec<Transition>, _> =
            LogReader::new(std::io::Cursor::new(text.clone())).collect();
        assert_eq!(streamed.unwrap(), parse_log(&text).unwrap());
    });
}

#[test]
fn formatting_is_deterministic() {
    check(4, 256, steps, |s| {
        let ts = transitions(s);
        assert_eq!(format_log(&ts), format_log(&ts));
    });
}

/// The oracle's own histories, under either bias, survive the text format:
/// the updates its generator builds tuple by tuple are the ones the parser
/// builds run by run.
#[test]
fn generated_histories_round_trip() {
    let draw = |rng: &mut StdRng| (rng.gen_range(0..=u64::MAX), rng.gen_range(0..2) == 1);
    check(5, 64, draw, |&(seed, resident)| {
        let bias = [HistoryBias::Churn, HistoryBias::Resident][usize::from(resident)];
        let cfg = GenConfig {
            bias,
            ..GenConfig::default()
        };
        let ts = case(seed, 0, &cfg).transitions;
        assert_eq!(parse_log(&format_log(&ts)).unwrap(), ts);
    });
}
