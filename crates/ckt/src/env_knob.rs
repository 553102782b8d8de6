//! Shared warn-and-default parsing of `SPECWISE_*` environment knobs.
//!
//! Every knob in the workspace (`SPECWISE_WORKERS`, `SPECWISE_GRAD`,
//! `SPECWISE_ESTIMATOR`, …) follows one contract: an unset variable keeps
//! its default silently; a set-but-malformed value also keeps the default,
//! after a one-line stderr warning naming the variable and the rejected
//! value (a silent fallback here once meant a typo'd `SPECWISE_WORKERS=8x`
//! quietly ran serial).
//!
//! The implementation lives in `specwise-ckt` because it is the lowest
//! crate below every crate that reads a knob (`SPECWISE_GRAD` in
//! `specwise-wcd`, the engine knobs in `specwise-exec`);
//! `specwise-exec::config` re-exports it as the canonical public surface
//! for the higher layers.

use std::str::FromStr;

/// Reads and parses one `SPECWISE_*` environment knob.
///
/// Returns `None` when the variable is unset, and also when it is set but
/// malformed — in that case the standard warning line is printed to
/// stderr first. Callers supply the default via `unwrap_or`/`map_or`.
pub fn parse_env_knob<T: FromStr>(name: &str) -> Option<T> {
    let raw = std::env::var(name).ok()?;
    match parse_knob_checked(name, &raw) {
        Ok(value) => Some(value),
        Err(warning) => {
            eprintln!("{warning}");
            None
        }
    }
}

/// Parses one `SPECWISE_*` value without touching the process environment;
/// a malformed value yields the warning line [`parse_env_knob`] prints
/// before falling back to the default.
///
/// # Errors
///
/// Returns the warning text when `raw` does not parse as `T`.
pub fn parse_knob_checked<T: FromStr>(name: &str, raw: &str) -> Result<T, String> {
    raw.trim().parse().map_err(|_| {
        format!("specwise: ignoring malformed {name}={raw:?} (not a valid value); keeping default")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn malformed_values_warn_and_name_the_variable() {
        let err = parse_knob_checked::<usize>("SPECWISE_WORKERS", "64x").unwrap_err();
        assert!(err.contains("SPECWISE_WORKERS"), "{err}");
        assert!(err.contains("64x"), "{err}");
        assert!(err.contains("keeping default"), "{err}");
    }

    #[test]
    fn well_formed_values_parse_with_whitespace() {
        assert_eq!(
            parse_knob_checked::<usize>("SPECWISE_WORKERS", " 8 "),
            Ok(8)
        );
        assert_eq!(parse_knob_checked::<f64>("X", "1e-9"), Ok(1e-9));
    }

    #[test]
    fn unset_variables_stay_silent() {
        assert_eq!(
            parse_env_knob::<usize>("SPECWISE_KNOB_THAT_IS_NEVER_SET"),
            None
        );
    }
}
