//! The one command-line grammar of the `gpuflow`, `repro` and
//! `gpuflowd` binaries.
//!
//! Each command declares what it reads in a [`Spec`]: the flags that
//! take a value, the switches that take none, and how many positional
//! words it takes. [`Args::parse`] refuses, before the command runs, an
//! unknown flag (naming the flags the command takes), a flag given
//! twice, a value flag with nothing after it, and a positional word
//! past the command's count, so a mistyped factor is an error instead
//! of a run at its default. A value flag takes the next argument
//! whatever it is; any other argument not starting with `--` is a
//! positional word, wherever it stands. Integers are read at the width
//! of the field they set ([`parse_int`]).

use std::str::FromStr;

/// The flags and positional words one command reads: its name, as
/// usage errors show it; its value flags, in groups of space-separated
/// flags that commands can share; its space-separated switches; and
/// the most positional words it takes.
#[derive(Debug)]
pub struct Spec(
    pub &'static str,
    pub &'static [&'static str],
    pub &'static str,
    pub usize,
);

impl Spec {
    /// Every flag the command takes, value flags first.
    pub fn flags(&self) -> impl Iterator<Item = &'static str> {
        let groups = self.1.iter().copied().chain([self.2]);
        groups.flat_map(str::split_whitespace)
    }
}

/// A command line parsed under its command's [`Spec`].
#[derive(Debug, PartialEq)]
pub struct Args {
    words: Vec<String>,
    /// Each flag given, with its value (`None` for a switch).
    flags: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Parses `argv`, the arguments after the command's name, under
    /// `spec`.
    ///
    /// # Errors
    /// Refuses a flag `spec` does not declare, naming the ones it does;
    /// a flag given twice; a value flag with no argument after it; and
    /// more positional words than `spec` takes.
    pub fn parse(spec: &Spec, argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let Spec(name, _, switches, most) = *spec;
        let (mut words, mut flags) = (Vec::new(), Vec::new());
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            if !arg.starts_with("--") {
                if words.len() == most {
                    return Err(format!(
                        "unexpected argument '{arg}' ({name} takes {most} word(s))"
                    ));
                }
                words.push(arg);
                continue;
            }
            let Some(flag) = spec.flags().find(|f| *f == arg) else {
                let known = spec.flags().collect::<Vec<_>>().join(", ");
                return Err(format!("unknown flag {arg} ({name} takes: {known})"));
            };
            if flags.iter().any(|(f, _)| *f == flag) {
                return Err(format!("{flag} given twice"));
            }
            let value = if switches.split_whitespace().any(|s| s == flag) {
                None
            } else {
                Some(argv.next().ok_or_else(|| format!("{flag} needs a value"))?)
            };
            flags.push((flag, value));
        }
        Ok(Args { words, flags })
    }

    /// The positional words, in order.
    pub fn words(&self) -> &[String] {
        &self.words
    }

    /// The value of `flag`, if given.
    pub fn get(&self, flag: &str) -> Option<&str> {
        let (_, value) = self.flags.iter().find(|(f, _)| *f == flag)?;
        value.as_deref()
    }

    /// Whether the switch `flag` was given.
    pub fn switch(&self, flag: &str) -> bool {
        self.flags.iter().any(|(f, _)| *f == flag)
    }

    /// The value of `flag` as an integer of `T`'s width ([`parse_int`]),
    /// if given.
    ///
    /// # Errors
    /// Reports a value that is not such an integer.
    pub fn int<T: TryFrom<u64>>(&self, flag: &str) -> Result<Option<T>, String> {
        self.get(flag).map(|v| parse_int(v, flag)).transpose()
    }

    /// [`Args::int`] of a flag the command cannot run without.
    ///
    /// # Errors
    /// Reports a missing flag or a value that is not such an integer.
    pub fn required_int<T: TryFrom<u64>>(&self, flag: &str) -> Result<T, String> {
        self.int(flag)?.ok_or_else(|| format!("{flag} is required"))
    }

    /// The value of `flag` parsed as a `T` (a number of seconds, say),
    /// if given.
    ///
    /// # Errors
    /// Reports a value `T` does not parse.
    pub fn num<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        let parse = |v: &str| {
            v.parse()
                .map_err(|_| format!("{flag} wants a number, got {v:?}"))
        };
        self.get(flag).map(parse).transpose()
    }
}

/// Parses an integer, decimal or hexadecimal after `0x`, at the width
/// of `T`: a value `T` cannot hold is an error, never a truncation.
/// `what` names the value in the error.
///
/// # Errors
/// Reports an unparsable or out-of-range value.
pub fn parse_int<T: TryFrom<u64>>(s: &str, what: &str) -> Result<T, String> {
    let v = match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    };
    let width = std::any::type_name::<T>();
    let err = || format!("{what} wants a {width} integer, got {s:?}");
    v.and_then(|v| T::try_from(v).ok()).ok_or_else(err)
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    const SPEC: Spec = Spec("cmd", &["--rows --port", "--secs"], "--json", 1);

    fn parse(argv: &[&str]) -> Result<Args, String> {
        Args::parse(&SPEC, argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn unknown_flags_are_refused_with_the_flags_the_command_takes() {
        let err = parse(&["--procesor", "gpu"]).unwrap_err();
        assert_eq!(
            err,
            "unknown flag --procesor (cmd takes: --rows, --port, --secs, --json)"
        );
        // `--key=value` is not a spelling of `--key value`.
        assert!(parse(&["--rows=4"])
            .unwrap_err()
            .starts_with("unknown flag --rows=4"));
    }

    #[test]
    fn a_repeated_flag_is_refused_before_its_values_are_read() {
        assert_eq!(
            parse(&["--rows", "many", "--rows", "2"]).unwrap_err(),
            "--rows given twice"
        );
        assert_eq!(
            parse(&["--json", "--json"]).unwrap_err(),
            "--json given twice"
        );
    }

    #[test]
    fn words_stand_anywhere_up_to_the_count() {
        let a = parse(&["--rows", "4", "view", "--json"]).unwrap();
        assert_eq!(a.words(), ["view"]);
        assert!(a.switch("--json"));
        let err = parse(&["view", "extra"]).unwrap_err();
        assert_eq!(err, "unexpected argument 'extra' (cmd takes 1 word(s))");
        // A value flag takes the next argument, even one that looks like a flag.
        let a = parse(&["--secs", "--json"]).unwrap();
        assert_eq!(a.get("--secs"), Some("--json"));
        assert!(!a.switch("--json"));
    }

    #[test]
    fn integers_are_read_at_their_width_in_decimal_or_hex() {
        let a = parse(&["--rows", "0x10", "--port", "65535"]).unwrap();
        assert_eq!(a.int::<u64>("--rows"), Ok(Some(16)));
        assert_eq!(a.int::<u16>("--port"), Ok(Some(65_535)));
        assert_eq!(
            a.int::<u8>("--port"),
            Err(String::from("--port wants a u8 integer, got \"65535\""))
        );
        assert_eq!(a.int::<u32>("--secs"), Ok(None));
        for bad in ["-1", "0x", "1.5", "", "0xg"] {
            let a = parse(&["--rows", bad]).unwrap();
            assert_eq!(
                a.int::<u64>("--rows"),
                Err(format!("--rows wants a u64 integer, got {bad:?}"))
            );
        }
        assert_eq!(
            parse(&[]).unwrap().required_int::<u64>("--rows"),
            Err(String::from("--rows is required"))
        );
    }

    #[test]
    fn other_numbers_parse_with_their_type() {
        let a = parse(&["--secs", "0.5"]).unwrap();
        assert_eq!(a.num::<f64>("--secs"), Ok(Some(0.5)));
        let a = parse(&["--secs", "soon"]).unwrap();
        assert_eq!(
            a.num::<f64>("--secs"),
            Err(String::from("--secs wants a number, got \"soon\""))
        );
    }

    /// Flags, values and words the property draws argv from.
    const TOKENS: [&str; 9] = [
        "--rows", "--port", "--secs", "--json", "--bogus", "--", "8", "0x1f", "view",
    ];

    proptest! {
        /// Any argv parses or is refused without a panic, and a parsed
        /// command line written out again parses to the same.
        #[test]
        fn arbitrary_argv_round_trips_or_is_refused(
            picks in prop::collection::vec(0..TOKENS.len(), 0..10),
        ) {
            let argv = picks.iter().map(|&i| TOKENS[i].to_string());
            match Args::parse(&SPEC, argv) {
                Ok(a) => {
                    let flags = a.flags.iter().flat_map(|(f, v)| [Some(f.to_string()), v.clone()]);
                    let again = flags.flatten().chain(a.words.clone());
                    prop_assert_eq!(Args::parse(&SPEC, again), Ok(a));
                }
                Err(e) => {
                    let kinds = ["unexpected argument", "unknown flag", "given twice", "needs a value"];
                    prop_assert!(kinds.iter().any(|k| e.contains(k)), "{e}");
                }
            }
        }
    }
}
