//! The checkpoint container format, version 2.
//!
//! A v2 container wraps one or more opaque checkpoint *sections* (the
//! line-oriented `rtic-checkpoint v1` texts produced by
//! `core::checkpoint::save`) in a versioned header and a CRC-32 trailer:
//!
//! ```text
//! rtic-checkpoint-set v2
//! sections <n>
//! payload-bytes <len>
//! <len bytes of payload: the concatenated v1 sections>
//! crc32 <8 lowercase hex digits>
//! ```
//!
//! The CRC covers every byte from the start of the file through the end
//! of the payload, so truncation, bit flips, and section reordering are
//! all detected ([`ContainerError`] — never a panic, never a silently
//! wrong checker). Any other `rtic-checkpoint` header, including the
//! bare `rtic-checkpoint v1` files that builds before the container
//! wrote, is a [`ContainerError::UnsupportedVersion`] and is never read:
//! the log is the source of truth, and replaying it without `--resume`
//! rebuilds the state.

use std::fmt::Write as _;

use crate::crc32::crc32;

/// Magic first line of a v2 container.
pub const MAGIC_V2: &str = "rtic-checkpoint-set v2";
/// Magic first line of a checkpoint section inside the container.
pub const MAGIC_V1: &str = "rtic-checkpoint v1";

/// Why a checkpoint container was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ContainerError {
    /// The file does not start with a known checkpoint magic line.
    BadMagic {
        /// The first line actually found (truncated for display).
        found: String,
    },
    /// The file announces a checkpoint version this build cannot read.
    UnsupportedVersion {
        /// The version line found.
        found: String,
    },
    /// The file ends before the announced payload/trailer is complete.
    Truncated {
        /// Bytes the header promised.
        expected: usize,
        /// Bytes actually present.
        found: usize,
    },
    /// The stored CRC-32 does not match the file contents.
    ChecksumMismatch {
        /// CRC recorded in the trailer.
        stored: u32,
        /// CRC computed over the file.
        computed: u32,
    },
    /// The container structure is invalid (bad header field, bad
    /// trailer, non-UTF-8 payload, section count mismatch, ...).
    Malformed {
        /// Human-readable detail.
        detail: String,
    },
}

impl std::fmt::Display for ContainerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ContainerError::BadMagic { found } => {
                write!(f, "not a checkpoint file (first line: `{found}`)")
            }
            ContainerError::UnsupportedVersion { found } => {
                write!(f, "unsupported checkpoint version: `{found}`")
            }
            ContainerError::Truncated { expected, found } => {
                write!(
                    f,
                    "checkpoint truncated: expected {expected} bytes, found {found}"
                )
            }
            ContainerError::ChecksumMismatch { stored, computed } => {
                write!(
                    f,
                    "checkpoint checksum mismatch: stored crc32 {stored:08x}, computed {computed:08x}"
                )
            }
            ContainerError::Malformed { detail } => {
                write!(f, "malformed checkpoint container: {detail}")
            }
        }
    }
}

impl std::error::Error for ContainerError {}

/// Seal checkpoint sections into a v2 container.
///
/// Each section must be a complete `rtic-checkpoint v1` text (starting
/// with its magic line) so [`open_any`] can split the payload back into
/// the same sections.
pub fn seal<'a>(sections: impl IntoIterator<Item = &'a str>) -> String {
    let sections: Vec<&str> = sections.into_iter().collect();
    let payload_len: usize = sections.iter().map(|s| s.len()).sum();
    // Header (≤ 80 bytes), payload and trailer, written once.
    let mut out = String::with_capacity(payload_len + 96);
    let _ = writeln!(out, "{MAGIC_V2}\nsections {}", sections.len());
    let _ = writeln!(out, "payload-bytes {payload_len}");
    sections.iter().for_each(|s| out.push_str(s));
    let crc = crc32(out.as_bytes());
    let _ = writeln!(out, "crc32 {crc:08x}");
    out
}

/// Open a checkpoint file: a checksummed v2 container, validated, split
/// back into its sections. Any other file is a typed error.
pub fn open_any(bytes: &[u8]) -> Result<Vec<String>, ContainerError> {
    if bytes.starts_with(MAGIC_V2.as_bytes()) {
        return open_v2(bytes);
    }
    if bytes.starts_with(b"rtic-checkpoint") {
        let first = first_line_lossy(bytes);
        return Err(ContainerError::UnsupportedVersion { found: first });
    }
    Err(ContainerError::BadMagic {
        found: first_line_lossy(bytes),
    })
}

fn open_v2(bytes: &[u8]) -> Result<Vec<String>, ContainerError> {
    // Parse the three header lines at byte level so corruption in the
    // payload cannot derail header parsing.
    let mut pos = MAGIC_V2.len();
    pos = expect_newline(bytes, pos)?;
    let (section_count, next) = parse_header_field(bytes, pos, "sections")?;
    let (payload_len, payload_start) = parse_header_field(bytes, next, "payload-bytes")?;

    let payload_end = payload_start
        .checked_add(payload_len)
        .ok_or(ContainerError::Malformed {
            detail: "payload-bytes overflows".to_string(),
        })?;
    // Trailer: "crc32 " + 8 hex digits + "\n"
    let trailer_len = "crc32 ".len() + 8 + 1;
    let expected_total = payload_end + trailer_len;
    if bytes.len() < expected_total {
        return Err(ContainerError::Truncated {
            expected: expected_total,
            found: bytes.len(),
        });
    }
    if bytes.len() > expected_total {
        return Err(ContainerError::Malformed {
            detail: format!(
                "{} trailing bytes after the crc32 trailer",
                bytes.len() - expected_total
            ),
        });
    }
    let trailer = &bytes[payload_end..];
    let stored = std::str::from_utf8(trailer)
        .ok()
        .and_then(|t| t.strip_prefix("crc32 "))
        .and_then(|t| t.strip_suffix('\n'))
        // Canonical lowercase hex only: a case-insensitive parse would
        // let certain trailer bit flips slip through undetected.
        .filter(|hex| hex.bytes().all(|b| matches!(b, b'0'..=b'9' | b'a'..=b'f')))
        .and_then(|hex| u32::from_str_radix(hex, 16).ok())
        .ok_or(ContainerError::Malformed {
            detail: "bad crc32 trailer".to_string(),
        })?;
    let computed = crc32(&bytes[..payload_end]);
    if stored != computed {
        return Err(ContainerError::ChecksumMismatch { stored, computed });
    }

    let payload = std::str::from_utf8(&bytes[payload_start..payload_end]).map_err(|_| {
        ContainerError::Malformed {
            detail: "payload is not valid UTF-8".to_string(),
        }
    })?;
    let sections = if payload.is_empty() {
        Vec::new()
    } else {
        if !payload.starts_with(MAGIC_V1) {
            return Err(ContainerError::Malformed {
                detail: "payload does not start with a v1 section".to_string(),
            });
        }
        split_v1_sections(payload)
    };
    if sections.len() != section_count {
        return Err(ContainerError::Malformed {
            detail: format!(
                "header announces {section_count} section(s), payload holds {}",
                sections.len()
            ),
        });
    }
    Ok(sections)
}

/// Split concatenated v1 checkpoint text into individual sections; each
/// `rtic-checkpoint v1` magic line starts a new section.
fn split_v1_sections(text: &str) -> Vec<String> {
    let mut sections: Vec<String> = Vec::new();
    for line in text.lines() {
        if line == MAGIC_V1 || sections.is_empty() {
            sections.push(String::new());
        }
        if let Some(current) = sections.last_mut() {
            current.push_str(line);
            current.push('\n');
        }
    }
    sections
}

fn expect_newline(bytes: &[u8], pos: usize) -> Result<usize, ContainerError> {
    if bytes.get(pos) == Some(&b'\n') {
        Ok(pos + 1)
    } else {
        Err(ContainerError::Malformed {
            detail: "missing newline after header line".to_string(),
        })
    }
}

/// Parse a `key <decimal>\n` header line starting at `pos`; returns the
/// value and the byte offset just past the newline.
fn parse_header_field(
    bytes: &[u8],
    pos: usize,
    key: &str,
) -> Result<(usize, usize), ContainerError> {
    let rest = bytes.get(pos..).ok_or(ContainerError::Truncated {
        expected: pos + key.len() + 2,
        found: bytes.len(),
    })?;
    let malformed = || ContainerError::Malformed {
        detail: format!("bad `{key}` header line"),
    };
    if !rest.starts_with(key.as_bytes()) || rest.get(key.len()) != Some(&b' ') {
        return Err(malformed());
    }
    let value_start = key.len() + 1;
    let nl =
        rest[value_start..]
            .iter()
            .position(|&b| b == b'\n')
            .ok_or(ContainerError::Truncated {
                expected: pos + rest.len() + 1,
                found: bytes.len(),
            })?;
    let value_bytes = &rest[value_start..value_start + nl];
    let value = std::str::from_utf8(value_bytes)
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .ok_or_else(malformed)?;
    Ok((value, pos + value_start + nl + 1))
}

fn first_line_lossy(bytes: &[u8]) -> String {
    let line = bytes.split(|&b| b == b'\n').next().unwrap_or(&[]);
    let mut text = String::from_utf8_lossy(line).into_owned();
    if text.len() > 64 {
        text.truncate(64);
        text.push('…');
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;

    fn demo_sections() -> Vec<String> {
        vec![
            format!("{MAGIC_V1}\nconstraint a\nbody G a\ntime 3\nsteps 4\n"),
            format!("{MAGIC_V1}\nconstraint b\nbody G b\ntime 3\nsteps 4\n"),
        ]
    }

    #[test]
    fn seal_open_round_trip() {
        let sections = demo_sections();
        let sealed = seal(sections.iter().map(String::as_str));
        assert_eq!(open_any(sealed.as_bytes()).unwrap(), sections);
    }

    #[test]
    fn empty_container_round_trips() {
        let sealed = seal(std::iter::empty());
        assert!(open_any(sealed.as_bytes()).unwrap().is_empty());
    }

    #[test]
    fn truncation_is_detected() {
        let sealed = seal(demo_sections().iter().map(String::as_str));
        for cut in [sealed.len() - 1, sealed.len() / 2, 30] {
            let err = open_any(&sealed.as_bytes()[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    ContainerError::Truncated { .. } | ContainerError::Malformed { .. }
                ),
                "cut at {cut} gave {err:?}"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let sealed = seal(demo_sections().iter().map(String::as_str)).into_bytes();
        for byte in 0..sealed.len() {
            for bit in 0..8 {
                let mut corrupt = sealed.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    open_any(&corrupt).is_err(),
                    "flip at {byte}:{bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn section_reorder_is_detected() {
        let sections = demo_sections();
        let sealed = seal(sections.iter().map(String::as_str));
        // Swap the two sections inside the sealed payload without
        // resealing: the CRC no longer matches.
        let swapped_payload: String = sections.iter().rev().cloned().collect();
        let header_end = sealed.find(MAGIC_V1).unwrap();
        let trailer_start = sealed.rfind("crc32 ").unwrap();
        let tampered = format!(
            "{}{}{}",
            &sealed[..header_end],
            swapped_payload,
            &sealed[trailer_start..]
        );
        let err = open_any(tampered.as_bytes()).unwrap_err();
        assert!(matches!(err, ContainerError::ChecksumMismatch { .. }));
    }

    #[test]
    fn alien_and_future_files_are_typed_errors() {
        assert!(matches!(
            open_any(b"totally not a checkpoint"),
            Err(ContainerError::BadMagic { .. })
        ));
        assert!(matches!(
            open_any(b"rtic-checkpoint-set v99\n"),
            Err(ContainerError::UnsupportedVersion { .. })
        ));
        assert!(matches!(
            open_any(b""),
            Err(ContainerError::BadMagic { .. })
        ));
    }

    /// Bare sections, as builds before the container wrote them, are
    /// refused rather than read without a checksum.
    #[test]
    fn bare_v1_sections_are_an_unsupported_version() {
        let bare = demo_sections().concat();
        assert_eq!(
            open_any(bare.as_bytes()),
            Err(ContainerError::UnsupportedVersion {
                found: MAGIC_V1.to_string()
            })
        );
    }
}
