//! The one command-line parser of the bench bins.
//!
//! Flags and positionals may come in any order. A value that does not
//! parse, a flag without its value, an unknown flag and a stray argument
//! are all errors: a typo must not run (and pass a gate at) a default
//! seed or size. A bin reads its flags first, then its positionals, and
//! [`parse_or_exit`] turns an error into its usage line and exit code 2.

use std::str::FromStr;

/// The arguments after the program name, consumed as they are read.
#[derive(Debug)]
pub struct Args(Vec<String>);

impl Args {
    /// Wraps a command line (without the program name).
    pub fn new(args: impl IntoIterator<Item = String>) -> Self {
        Args(args.into_iter().collect())
    }

    /// `--flag VALUE`, parsed; `None` when the flag is absent.
    pub fn value<T: FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        let Some(at) = self.0.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        self.0.remove(at);
        if at == self.0.len() {
            return Err(format!("{flag} needs a value"));
        }
        let v = self.0.remove(at);
        v.parse()
            .map(Some)
            .map_err(|_| format!("{flag}: cannot parse {v:?}"))
    }

    /// A bare `--flag`: whether it was given.
    pub fn switch(&mut self, flag: &str) -> bool {
        let at = self.0.iter().position(|a| a == flag);
        at.map(|at| self.0.remove(at)).is_some()
    }

    /// The next positional argument, parsed; `None` when none is left.
    /// Read every flag first: whatever flag is still there is unknown.
    pub fn positional<T: FromStr>(&mut self, what: &str) -> Result<Option<T>, String> {
        match self.0.first() {
            None => Ok(None),
            Some(a) if a.starts_with("--") => Err(format!("unknown or repeated flag {a}")),
            Some(_) => {
                let v = self.0.remove(0);
                v.parse()
                    .map(Some)
                    .map_err(|_| format!("{what}: cannot parse {v:?}"))
            }
        }
    }

    /// Reads the command line with `parse`; whatever it leaves unread is
    /// an error.
    pub fn read<T>(
        mut self,
        parse: impl FnOnce(&mut Args) -> Result<T, String>,
    ) -> Result<T, String> {
        let parsed = parse(&mut self)?;
        match self.positional::<String>("")? {
            Some(extra) => Err(format!("unexpected argument {extra:?}")),
            None => Ok(parsed),
        }
    }
}

/// Reads the process's arguments with `parse` (see [`Args::read`]); on an
/// error prints it with `usage` to stderr and exits 2.
#[expect(
    clippy::exit,
    clippy::print_stderr,
    reason = "the bins' shared argument check: it runs before any simulation, and refusing a command line is a process exit by definition"
)]
pub fn parse_or_exit<T>(usage: &str, parse: impl FnOnce(&mut Args) -> Result<T, String>) -> T {
    match Args::new(std::env::args().skip(1)).read(parse) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{usage}");
            std::process::exit(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &[&str]) -> Args {
        Args::new(line.iter().map(|s| (*s).to_owned()))
    }

    #[test]
    fn flags_and_positionals_come_in_any_order() {
        let read = args(&["7", "--threads", "8", "--smoke", "out.json"]).read(|a| {
            assert_eq!(a.value::<usize>("--threads"), Ok(Some(8)));
            assert_eq!(a.value::<u64>("--seeds"), Ok(None));
            assert!(a.switch("--smoke"));
            assert!(!a.switch("--profile"));
            assert_eq!(a.positional::<u64>("seed"), Ok(Some(7)));
            assert_eq!(a.positional("out"), Ok(Some("out.json".to_owned())));
            a.positional::<u64>("trials")
        });
        assert_eq!(read, Ok(None));
    }

    #[test]
    fn what_cannot_be_parsed_is_an_error() {
        let err = |line: &[&str]| {
            args(line)
                .read(|a| {
                    a.value::<usize>("--threads")?;
                    a.positional::<u64>("seed")
                })
                .expect_err("must be refused")
        };
        assert_eq!(err(&["--threads"]), "--threads needs a value");
        assert_eq!(
            err(&["--threads", "many"]),
            "--threads: cannot parse \"many\""
        );
        assert_eq!(err(&["seed"]), "seed: cannot parse \"seed\"");
        assert_eq!(err(&["--thread", "2"]), "unknown or repeated flag --thread");
        assert_eq!(err(&["1", "2"]), "unexpected argument \"2\"");
    }
}
