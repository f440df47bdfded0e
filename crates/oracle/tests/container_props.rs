//! Property: sealing checkpoint sections and corrupting the container —
//! truncation, bit flips, section reordering — always yields a typed
//! [`ContainerError`], never a panic and never a silently reordered or
//! altered payload. Intact containers always round-trip.

use rand::rngs::StdRng;
use rand::Rng;
use rtic_oracle::property::{chars, check, vec_of, Shrink};
use rtic_resilience::container::{open_any, seal, ContainerError, MAGIC_V1};

const NAME_START: &str = "abcdefghijklmnopqrstuvwxyz";
const NAME_REST: &str = "abcdefghijklmnopqrstuvwxyz0123456789_";

/// One section as drawn: its constraint name (first character and the
/// rest) and its payload lines.
type Spec = ((char, Vec<char>), Vec<Vec<char>>);

fn specs(rng: &mut StdRng) -> Vec<Spec> {
    vec_of(rng, 1..5, |r| {
        let name = (chars(r, NAME_START, 1..2)[0], chars(r, NAME_REST, 0..9));
        let printable = |r: &mut StdRng| char::from(r.gen_range(b' '..=b'~'));
        (name, vec_of(r, 0..6, |r| vec_of(r, 0..21, printable)))
    })
}

/// Plausible v1 checkpoint sections with arbitrary-ish body content.
/// Constraint names are index-tagged so every section is distinct, which
/// makes any reordering observable.
fn sections(specs: &[Spec]) -> Vec<String> {
    specs
        .iter()
        .enumerate()
        .map(|(i, ((first, rest), lines))| {
            let name: String = std::iter::once(first).chain(rest).collect();
            let mut s = format!("{MAGIC_V1}\nconstraint {name}_{i}\n");
            for line in lines {
                // Indent payload lines so none collides with the v1
                // magic, which is the section delimiter.
                s.push_str("  ");
                s.extend(line);
                s.push('\n');
            }
            s
        })
        .collect()
}

#[derive(Debug, Clone)]
enum Corruption {
    Truncate(usize),
    BitFlip(usize),
    SwapSections(usize, usize),
}

impl Shrink for Corruption {}

fn corruption(rng: &mut StdRng) -> Corruption {
    match rng.gen_range(0..3) {
        0 => Corruption::Truncate(rng.gen_range(0..10_000)),
        1 => Corruption::BitFlip(rng.gen_range(0..80_000)),
        _ => Corruption::SwapSections(rng.gen_range(0..4), rng.gen_range(0..4)),
    }
}

#[test]
fn intact_containers_round_trip() {
    check(61, 256, specs, |specs| {
        let secs = sections(specs);
        let sealed = seal(secs.iter().map(String::as_str));
        let reopened = open_any(sealed.as_bytes()).expect("intact container opens");
        assert_eq!(reopened, secs);
    });
}

#[test]
fn corruption_is_a_typed_error_never_a_wrong_answer() {
    let draw = |rng: &mut StdRng| (specs(rng), corruption(rng));
    check(62, 256, draw, |(specs, c)| {
        let secs = sections(specs);
        let sealed = seal(secs.iter().map(String::as_str)).into_bytes();
        let corrupt: Vec<u8> = match *c {
            Corruption::Truncate(at) => sealed[..at % sealed.len()].to_vec(),
            Corruption::BitFlip(bit) => {
                let mut bytes = sealed.clone();
                let idx = (bit / 8) % bytes.len();
                bytes[idx] ^= 1 << (bit % 8);
                bytes
            }
            Corruption::SwapSections(a, b) => {
                // A shrunk input may hold no section at all.
                let n = secs.len().max(1);
                let (a, b) = (a % n, b % n);
                if a == b {
                    // Swapping a section with itself is not a corruption.
                    return;
                }
                // Reorder the payload in place without resealing.
                let mut reordered = secs.clone();
                reordered.swap(a, b);
                let text = String::from_utf8(sealed.clone()).expect("sealed is UTF-8");
                let payload: String = secs.concat();
                let start = text.find(&payload).expect("payload present");
                let mut tampered = text;
                tampered.replace_range(start..start + payload.len(), &reordered.concat());
                tampered.into_bytes()
            }
        };
        if corrupt == sealed {
            return;
        }
        // The call must return a typed error: no panic (the runner
        // would catch it) and no Ok with a payload.
        match open_any(&corrupt) {
            Err(
                ContainerError::BadMagic { .. }
                | ContainerError::UnsupportedVersion { .. }
                | ContainerError::Truncated { .. }
                | ContainerError::ChecksumMismatch { .. }
                | ContainerError::Malformed { .. },
            ) => {}
            Ok(_) => panic!("corrupted container opened cleanly"),
        }
    });
}
