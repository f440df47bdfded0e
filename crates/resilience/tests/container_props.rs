//! Property: sealing checkpoint sections and corrupting the container —
//! truncation, bit flips, section reordering — always yields a typed
//! [`ContainerError`], never a panic and never a silently reordered or
//! altered payload. Intact containers always round-trip.

use proptest::prelude::*;
use rtic_resilience::container::{open_any, seal, ContainerError, MAGIC_V1};

/// Plausible v1 checkpoint sections with arbitrary-ish body content.
/// Constraint names are index-tagged so every section is distinct, which
/// makes any reordering observable.
fn sections() -> impl Strategy<Value = Vec<String>> {
    proptest::collection::vec(
        (
            "[a-z][a-z0-9_]{0,8}",
            proptest::collection::vec("[ -~]{0,20}", 0..6),
        ),
        1..5,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (name, lines))| {
                let mut s = format!("{MAGIC_V1}\nconstraint {name}_{i}\n");
                for line in lines {
                    // Indent payload lines so none collides with the v1
                    // magic, which is the section delimiter.
                    s.push_str("  ");
                    s.push_str(&line);
                    s.push('\n');
                }
                s
            })
            .collect()
    })
}

#[derive(Debug, Clone)]
enum Corruption {
    Truncate(usize),
    BitFlip(usize),
    SwapSections(usize, usize),
}

fn corruption() -> impl Strategy<Value = Corruption> {
    prop_oneof![
        (0usize..10_000).prop_map(Corruption::Truncate),
        (0usize..80_000).prop_map(Corruption::BitFlip),
        (0usize..4, 0usize..4).prop_map(|(a, b)| Corruption::SwapSections(a, b)),
    ]
}

proptest! {
    #[test]
    fn intact_containers_round_trip(secs in sections()) {
        let sealed = seal(secs.iter().map(String::as_str));
        let reopened = open_any(sealed.as_bytes()).expect("intact container opens");
        prop_assert_eq!(reopened, secs);
    }

    #[test]
    fn corruption_is_a_typed_error_never_a_wrong_answer(
        secs in sections(),
        c in corruption(),
    ) {
        let sealed = seal(secs.iter().map(String::as_str)).into_bytes();
        let corrupt: Vec<u8> = match c {
            Corruption::Truncate(at) => sealed[..at % sealed.len()].to_vec(),
            Corruption::BitFlip(bit) => {
                let mut bytes = sealed.clone();
                let idx = (bit / 8) % bytes.len();
                bytes[idx] ^= 1 << (bit % 8);
                bytes
            }
            Corruption::SwapSections(a, b) => {
                let (a, b) = (a % secs.len(), b % secs.len());
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
        // The call must return a typed error: no panic (the test harness
        // would catch it) and no Ok with a payload.
        match open_any(&corrupt) {
            Err(
                ContainerError::BadMagic { .. }
                | ContainerError::UnsupportedVersion { .. }
                | ContainerError::Truncated { .. }
                | ContainerError::ChecksumMismatch { .. }
                | ContainerError::Malformed { .. },
            ) => {}
            Ok(_) => prop_assert!(false, "corrupted container opened cleanly"),
        }
    }
}
