//! Minimal flag parsing for the `hetgrid` CLI (no external parser: the
//! offline dependency set is deliberately small).

use std::collections::HashMap;

/// Parsed command line: a subcommand plus `--key value` / `--flag`
/// options.
#[derive(Clone, Debug, Default)]
pub struct Args {
    /// The subcommand (first non-flag argument).
    pub command: Option<String>,
    options: HashMap<String, String>,
    flags: Vec<String>,
}

/// Is `t` a flag token? `--anything`, or a short flag like `-v`
/// (a single dash followed by a letter — `-1.5` stays a value).
fn is_flag_token(t: &str) -> bool {
    t.starts_with("--")
        || (t.len() > 1
            && t.starts_with('-')
            && t[1..]
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic()))
}

impl Args {
    /// Parses from an iterator of arguments (excluding `argv[0]`).
    pub fn parse(argv: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut out = Args::default();
        let mut argv = argv.peekable();
        while let Some(a) = argv.next() {
            if let Some(key) = a.strip_prefix("--") {
                // `--key value` when the next token is not a flag;
                // otherwise a boolean flag.
                match argv.peek() {
                    Some(v) if !is_flag_token(v) => {
                        let v = argv.next().expect("peeked");
                        if out.options.insert(key.to_string(), v).is_some() {
                            return Err(format!("duplicate option --{}", key));
                        }
                    }
                    _ => out.flags.push(key.to_string()),
                }
            } else if is_flag_token(&a) {
                // Short boolean flag (`-v`); never takes a value.
                out.flags.push(a[1..].to_string());
            } else if out.command.is_none() {
                out.command = Some(a);
            } else {
                return Err(format!("unexpected argument: {}", a));
            }
        }
        Ok(out)
    }

    /// A string option.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.options.get(key).map(|s| s.as_str())
    }

    /// A required string option.
    pub fn require(&self, key: &str) -> Result<&str, String> {
        self.get(key).ok_or_else(|| format!("missing --{}", key))
    }

    /// A parsed option with default.
    pub fn get_parse<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for --{}: {}", key, v)),
            None => Ok(default),
        }
    }

    /// A boolean flag.
    pub fn flag(&self, key: &str) -> bool {
        self.flags.iter().any(|f| f == key)
    }

    /// Diagnostic verbosity from `--quiet`/`-q` and `--verbose`/`-v`
    /// (see `hetgrid_obs::diag`): 0 quiet, 1 default, 2 verbose.
    pub fn verbosity(&self) -> i32 {
        if self.flag("quiet") || self.flag("q") {
            0
        } else if self.flag("verbose") || self.flag("v") {
            2
        } else {
            1
        }
    }

    /// Comma-separated cycle-times from `--times`.
    pub fn times(&self) -> Result<Vec<f64>, String> {
        let raw = self.require("times")?;
        raw.split(',')
            .map(|s| {
                s.trim()
                    .parse::<f64>()
                    .map_err(|_| format!("invalid cycle-time: {}", s))
            })
            .collect()
    }

    /// `--grid PxQ`.
    pub fn grid(&self) -> Result<(usize, usize), String> {
        let raw = self.require("grid")?;
        let (p, q) = raw
            .split_once(['x', 'X'])
            .ok_or_else(|| format!("invalid --grid (want PxQ): {}", raw))?;
        let p = p.parse().map_err(|_| format!("invalid grid rows: {}", p))?;
        let q = q.parse().map_err(|_| format!("invalid grid cols: {}", q))?;
        Ok((p, q))
    }

    /// A block count option (`--nb`, ...) that must be at least 1.
    pub fn count(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get_parse(key, default)? {
            0 => Err(format!("--{} must be at least 1", key)),
            n => Ok(n),
        }
    }

    /// `--panel BPxBQ`, which must be at least as large as the `p x q`
    /// grid so every processor gets a panel share; when absent, `default`
    /// grown to the grid.
    pub fn panel(
        &self,
        default: (usize, usize),
        (p, q): (usize, usize),
    ) -> Result<(usize, usize), String> {
        let Some(raw) = self.get("panel") else {
            return Ok((default.0.max(p), default.1.max(q)));
        };
        let (bp, bq) = raw
            .split_once(['x', 'X'])
            .and_then(|(a, b)| Some((a.parse().ok()?, b.parse().ok()?)))
            .ok_or_else(|| format!("invalid --panel (want BPxBQ): {}", raw))?;
        if bp < p || bq < q {
            return Err(format!(
                "--panel {}x{} is smaller than the {}x{} grid",
                bp, bq, p, q
            ));
        }
        Ok((bp, bq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Args {
        Args::parse(s.split_whitespace().map(String::from)).unwrap()
    }

    #[test]
    fn basic_parsing() {
        let a = parse("solve --times 1,2,3 --grid 1x3 --csv");
        assert_eq!(a.command.as_deref(), Some("solve"));
        assert_eq!(a.times().unwrap(), vec![1.0, 2.0, 3.0]);
        assert_eq!(a.grid().unwrap(), (1, 3));
        assert!(a.flag("csv"));
        assert!(!a.flag("json"));
    }

    #[test]
    fn defaults_and_requirements() {
        let a = parse("simulate --nb 32");
        assert_eq!(a.get_parse("nb", 0usize).unwrap(), 32);
        assert_eq!(a.get_parse("trials", 7usize).unwrap(), 7);
        assert!(a.require("times").is_err());
    }

    #[test]
    fn short_flags_and_verbosity() {
        let a = parse("run --nb 8 -v");
        assert!(a.flag("v"));
        assert_eq!(a.get_parse("nb", 0usize).unwrap(), 8);
        assert_eq!(a.verbosity(), 2);
        assert_eq!(parse("run --quiet").verbosity(), 0);
        assert_eq!(parse("run -q").verbosity(), 0);
        assert_eq!(parse("run").verbosity(), 1);
        // A short flag is never swallowed as an option value, but a
        // negative number still is.
        let a = parse("run --kernel mm -v");
        assert_eq!(a.get("kernel"), Some("mm"));
        assert!(a.flag("v"));
        let a = parse("run --shift -1.5");
        assert_eq!(a.get_parse("shift", 0.0f64).unwrap(), -1.5);
    }

    #[test]
    fn rejects_duplicates_and_strays() {
        assert!(Args::parse(["--a", "1", "--a", "2"].iter().map(|s| s.to_string())).is_err());
        assert!(Args::parse(["cmd", "stray"].iter().map(|s| s.to_string())).is_err());
    }

    #[test]
    fn counts_and_panels_are_validated() {
        let a = parse("run --nb 0 --panel 1x1");
        assert!(a.count("nb", 8).is_err());
        assert_eq!(a.count("block", 8).unwrap(), 8);
        assert!(a.panel((4, 4), (2, 2)).is_err());
        assert_eq!(a.panel((4, 4), (1, 1)).unwrap(), (1, 1));
        assert_eq!(parse("run").panel((4, 3), (2, 2)).unwrap(), (4, 3));
        assert_eq!(parse("run").panel((4, 4), (2, 6)).unwrap(), (4, 6));
        assert!(parse("run --panel 4").panel((4, 4), (2, 2)).is_err());
    }

    #[test]
    fn grid_format_errors() {
        let a = parse("x --grid 2y3");
        assert!(a.grid().is_err());
        let a = parse("x --grid 2x3");
        assert_eq!(a.grid().unwrap(), (2, 3));
    }
}
