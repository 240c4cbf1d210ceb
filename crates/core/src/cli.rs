//! The one strict flag parser behind `bnm` and the `bnm-bench` binaries.
//!
//! A command declares the flags it accepts as a space-separated list of
//! names (`"method reps seed loss format"`), and each name means the
//! same thing wherever it appears: `--loss` is always a probability,
//! `--reps` always a count of at least one. [`Flags::parse`] checks
//! every argument before anything runs, so bad input is a typed
//! [`FlagError`] (wrapping [`RunError::InvalidInput`]), never a silent
//! default: unknown flags and stray arguments, a valued flag without a
//! value, unparsable numbers, probabilities outside \[0,1\], non-positive
//! or non-finite rates, durations and periods, negative jitter,
//! out-of-range counts (`--reps 0`, `--clients 5000`), and unknown
//! method labels, browsers, OSes or formats. Seeds are decimal or
//! `0x`-hex. The getters cannot fail: every stored value passed its
//! check.
//!
//! ```
//! use bnm_core::cli::Flags;
//!
//! let flags = Flags::parse(["--seed", "0xAB", "--loss", "0.03"], "seed loss").unwrap();
//! assert_eq!((flags.seed(), flags.num("loss")), (0xab, Some(0.03)));
//! assert!(Flags::parse(["--loss", "abc"], "loss").is_err());
//! assert!(Flags::parse(["--los", "0.05"], "loss").is_err());
//! ```

use std::fmt;

use bnm_browser::BrowserKind;
use bnm_methods::MethodId;
use bnm_time::OsKind;

use crate::error::RunError;
use crate::report::ReportFormat;
use crate::scenario::Scenario;

/// The master seed every front end runs with unless `--seed` says
/// otherwise.
pub const DEFAULT_SEED: u64 = 0xB32B_2013;

/// A rejected argument and the typed error it caused.
#[derive(Debug, Clone, PartialEq)]
pub struct FlagError {
    /// The offending argument as given (`--loss abc`, `--los`).
    pub arg: String,
    /// Always a [`RunError::InvalidInput`].
    pub error: RunError,
}

impl fmt::Display for FlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.arg, self.error)
    }
}

impl std::error::Error for FlagError {}

/// What a flag's value must be.
#[derive(Clone, Copy)]
enum Kind {
    Switch,
    Seed,
    /// An integer in `1..=max`.
    Count(u64),
    Prob,
    NonNegative,
    Positive,
    Format,
    Method,
    Browser,
    Os,
    Text,
}

/// The one meaning of each flag name, and the placeholder the usage
/// text shows for its value; a name not listed is a switch.
fn kind_of(name: &str) -> (Kind, &'static str) {
    let count = |max: usize| Kind::Count(max as u64);
    match name {
        "seed" => (Kind::Seed, "S"),
        "reps" => (count(u32::MAX as usize), "N"),
        "size" => (count(u32::MAX as usize), "BYTES"),
        "clients" => (count(Scenario::DEFAULT_SESSION_LIMIT), "N"),
        "loss" | "corrupt" | "duplicate" => (Kind::Prob, "P"),
        "jitter" => (Kind::NonNegative, "MS"),
        "period" => (Kind::Positive, "MS"),
        "duration" | "every" => (Kind::Positive, "SECS"),
        "rate-mbps" => (Kind::Positive, "MBPS"),
        "format" => (Kind::Format, "text|json|csv"),
        "method" => (Kind::Method, "L"),
        "browser" => (Kind::Browser, "B"),
        "os" => (Kind::Os, "windows|ubuntu"),
        "results" => (Kind::Text, "DIR"),
        _ => (Kind::Switch, ""),
    }
}

/// The usage synopsis of the space-separated flags a command accepts,
/// one entry per flag: `[--reps N]`, `[--quick]`.
pub fn synopsis(accepts: &str) -> Vec<String> {
    let flag = |name| match kind_of(name).1 {
        "" => format!("[--{name}]"),
        value => format!("[--{name} {value}]"),
    };
    accepts.split_whitespace().map(flag).collect()
}

/// A checked flag value.
#[derive(Debug, Clone, PartialEq)]
enum Value {
    On,
    Int(u64),
    Num(f64),
    Format(ReportFormat),
    Method(MethodId),
    Browser(BrowserKind),
    Os(OsKind),
    Text(String),
}

impl Kind {
    fn check(self, v: &str) -> Result<Value, &'static str> {
        let num = |ok: fn(f64) -> bool, what| match v.parse::<f64>() {
            Ok(x) if ok(x) => Ok(Value::Num(x)),
            Ok(_) => Err(what),
            Err(_) => Err("not a number"),
        };
        match self {
            Kind::Switch => Ok(Value::On),
            Kind::Seed => match v.strip_prefix("0x").or_else(|| v.strip_prefix("0X")) {
                Some(hex) => u64::from_str_radix(&hex.replace('_', ""), 16).ok(),
                None => v.parse().ok(),
            }
            .map(Value::Int)
            .ok_or("seed must be a decimal or 0x-hex integer"),
            Kind::Count(max) => match v.parse::<u64>() {
                Ok(n) if (1..=max).contains(&n) => Ok(Value::Int(n)),
                Ok(_) => Err("integer out of range"),
                Err(_) => Err("not an integer"),
            },
            Kind::Prob => num(|p| (0.0..=1.0).contains(&p), "probability outside [0,1]"),
            Kind::NonNegative => num(|x| x.is_finite() && x >= 0.0, "must be finite and >= 0"),
            Kind::Positive => num(|x| x.is_finite() && x > 0.0, "must be finite and > 0"),
            Kind::Format => v
                .parse()
                .map(Value::Format)
                .map_err(|_| "format must be text, json or csv"),
            Kind::Method => MethodId::EXTENDED
                .into_iter()
                .find(|m| m.label() == v)
                .map(Value::Method)
                .ok_or("unknown method label"),
            Kind::Browser => BrowserKind::ALL
                .into_iter()
                .find(|b| b.name().eq_ignore_ascii_case(v))
                .map(Value::Browser)
                .ok_or("unknown browser"),
            Kind::Os => match v.to_ascii_lowercase().as_str() {
                "windows" | "win" | "w" => Ok(Value::Os(OsKind::Windows7)),
                "ubuntu" | "linux" | "u" => Ok(Value::Os(OsKind::Ubuntu1204)),
                _ => Err("unknown OS (windows|ubuntu)"),
            },
            Kind::Text => Ok(Value::Text(v.to_string())),
        }
    }
}

/// The checked flags of one command line. A flag given twice keeps its
/// last value.
#[derive(Debug, Clone)]
pub struct Flags {
    values: Vec<(String, Value)>,
}

impl Flags {
    /// Check `args` against the space-separated flag names a command
    /// `accepts`.
    pub fn parse<I>(args: I, accepts: &str) -> Result<Flags, FlagError>
    where
        I: IntoIterator,
        I::Item: Into<String>,
    {
        let mut values = Vec::new();
        let mut it = args.into_iter().map(Into::into).peekable();
        while let Some(arg) = it.next() {
            let reject = |arg, what| FlagError {
                arg,
                error: RunError::InvalidInput(what),
            };
            let name = match arg.strip_prefix("--") {
                Some(n) if accepts.split_whitespace().any(|a| a == n) => n.to_string(),
                _ => return Err(reject(arg, "unknown flag")),
            };
            let value = match kind_of(&name).0 {
                Kind::Switch => Value::On,
                kind => match it.next_if(|v| !v.starts_with("--")) {
                    None => return Err(reject(arg, "flag needs a value")),
                    Some(v) => kind
                        .check(&v)
                        .map_err(|what| reject(format!("{arg} {v}"), what))?,
                },
            };
            values.push((name, value));
        }
        Ok(Flags { values })
    }

    fn get(&self, name: &str) -> Option<&Value> {
        self.values
            .iter()
            .rev()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
    }

    /// Whether a flag was given.
    pub fn on(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// An integer flag's value (a count or a seed), or `default`.
    pub fn count(&self, name: &str, default: u64) -> u64 {
        match self.get(name) {
            Some(Value::Int(n)) => *n,
            _ => default,
        }
    }

    /// A numeric flag's value, if given.
    pub fn num(&self, name: &str) -> Option<f64> {
        match self.get(name) {
            Some(Value::Num(x)) => Some(*x),
            _ => None,
        }
    }

    /// A text flag's value, if given.
    pub fn text(&self, name: &str) -> Option<&str> {
        match self.get(name) {
            Some(Value::Text(s)) => Some(s),
            _ => None,
        }
    }

    /// `--reps`, or `default`.
    pub fn reps(&self, default: u32) -> u32 {
        self.count("reps", default.into()) as u32
    }

    /// `--seed`, or [`DEFAULT_SEED`].
    pub fn seed(&self) -> u64 {
        self.count("seed", DEFAULT_SEED)
    }

    /// `--format`, or text.
    pub fn format(&self) -> ReportFormat {
        match self.get("format") {
            Some(Value::Format(f)) => *f,
            _ => ReportFormat::Text,
        }
    }

    /// `--method`, or `default`.
    pub fn method(&self, default: MethodId) -> MethodId {
        match self.get("method") {
            Some(Value::Method(m)) => *m,
            _ => default,
        }
    }

    /// `--browser`, or `default`.
    pub fn browser(&self, default: BrowserKind) -> BrowserKind {
        match self.get("browser") {
            Some(Value::Browser(b)) => *b,
            _ => default,
        }
    }

    /// `--os`, or `default`.
    pub fn os(&self, default: OsKind) -> OsKind {
        match self.get("os") {
            Some(Value::Os(o)) => *o,
            _ => default,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: &str = "method reps seed format clients rate-mbps loss jitter results serial";

    #[test]
    fn values_are_typed_and_defaults_apply() {
        let f = Flags::parse(
            "--seed 0xAB --reps 2 --reps 7 --results /tmp/r --format json --method webrtc \
             --jitter 0 --serial"
                .split(' '),
            ALL,
        )
        .unwrap();
        assert_eq!((f.seed(), f.reps(50)), (0xab, 7));
        assert_eq!(
            (f.text("results"), f.num("jitter")),
            (Some("/tmp/r"), Some(0.0))
        );
        assert_eq!(f.format(), ReportFormat::Json);
        assert_eq!(f.method(MethodId::XhrGet), MethodId::WebRtc);
        assert!(f.on("serial") && !f.on("loss"));
        let none = Flags::parse(Vec::<String>::new(), ALL).unwrap();
        assert_eq!((none.seed(), none.reps(25)), (DEFAULT_SEED, 25));
        assert_eq!(
            (none.format(), none.num("loss")),
            (ReportFormat::Text, None)
        );
    }

    #[test]
    fn bad_input_is_rejected_with_its_argument() {
        for (args, arg, what) in [
            ("--los 0.05", "--los", "unknown flag"),
            ("stray", "stray", "unknown flag"),
            ("--loss", "--loss", "flag needs a value"),
            ("--loss --reps 2", "--loss", "flag needs a value"),
            ("--loss abc", "--loss abc", "not a number"),
            ("--loss 1.5", "--loss 1.5", "probability outside [0,1]"),
            ("--loss NaN", "--loss NaN", "probability outside [0,1]"),
            ("--jitter -5", "--jitter -5", "must be finite and >= 0"),
            ("--rate-mbps 0", "--rate-mbps 0", "must be finite and > 0"),
            (
                "--rate-mbps inf",
                "--rate-mbps inf",
                "must be finite and > 0",
            ),
            ("--reps 0", "--reps 0", "integer out of range"),
            ("--clients 4097", "--clients 4097", "integer out of range"),
            ("--reps x", "--reps x", "not an integer"),
            (
                "--format xml",
                "--format xml",
                "format must be text, json or csv",
            ),
            ("--method pigeon", "--method pigeon", "unknown method label"),
        ] {
            let e = Flags::parse(args.split(' '), ALL).unwrap_err();
            assert_eq!(
                (e.arg.as_str(), e.error),
                (arg, RunError::InvalidInput(what))
            );
        }
        assert!(Flags::parse(["--seed", "zap"], ALL).is_err());
        assert!(Flags::parse(["--clients", "4096"], ALL).is_ok());
    }

    #[test]
    fn synopsis_shows_each_flags_value() {
        assert_eq!(
            synopsis("reps loss  serial"),
            ["[--reps N]", "[--loss P]", "[--serial]"]
        );
    }
}
