//! `&str` as a strategy: the regex subset the workspace's properties use.
//!
//! A pattern is a sequence of atoms — `.`, a class `[a-z0-9_]` of ranges
//! and single characters, or a literal character — each optionally
//! repeated by `*`, `+`, `?`, `{n}` or `{m,n}`. Anything else panics at
//! sampling time, so an unsupported pattern cannot pass silently.

use std::iter::Peekable;
use std::str::Chars;

use biscuit_sim::rng::Rng;

use crate::strategy::Strategy;
use crate::test_runner::TestRunner;

/// How many repeats `*` and `+` may add.
const OPEN_REPEAT: usize = 32;

enum Atom {
    /// Any character but `\n`.
    Dot,
    Class(Vec<(char, char)>),
    Literal(char),
}

impl Atom {
    fn sample(&self, rng: &mut Rng) -> char {
        match self {
            // Mostly printable ASCII; one in four is any other scalar
            // value, so multi-byte encodings are exercised too.
            Atom::Dot => loop {
                let code = if rng.range(0..4u32) == 0 {
                    rng.range(0..=char::MAX as u32)
                } else {
                    rng.range(0x20..0x7Fu32)
                };
                match char::from_u32(code) {
                    Some('\n') | None => continue,
                    Some(c) => return c,
                }
            },
            Atom::Class(ranges) => {
                let &(lo, hi) = rng.choose(ranges).expect("class is non-empty");
                char::from_u32(rng.range(lo as u32..=hi as u32))
                    .expect("class ranges do not span the surrogates")
            }
            Atom::Literal(c) => *c,
        }
    }
}

fn parse_class(pattern: &str, chars: &mut Peekable<Chars<'_>>) -> Atom {
    let mut ranges = Vec::new();
    loop {
        let lo = match chars.next() {
            Some(']') if !ranges.is_empty() => return Atom::Class(ranges),
            Some(c) if c != '^' && c != '\\' => c,
            _ => panic!("unsupported character class in pattern {pattern:?}"),
        };
        let hi = if chars.peek() == Some(&'-') {
            chars.next();
            match chars.next() {
                Some(c) if c != ']' && c >= lo => c,
                _ => panic!("unsupported character class in pattern {pattern:?}"),
            }
        } else {
            lo
        };
        ranges.push((lo, hi));
    }
}

fn parse_number(pattern: &str, chars: &mut Peekable<Chars<'_>>) -> usize {
    let mut digits = String::new();
    while let Some(d) = chars.next_if(char::is_ascii_digit) {
        digits.push(d);
    }
    digits
        .parse()
        .unwrap_or_else(|_| panic!("bad repeat count in pattern {pattern:?}"))
}

/// The inclusive repeat bounds following an atom (`1..=1` if none).
fn parse_repeat(pattern: &str, chars: &mut Peekable<Chars<'_>>) -> (usize, usize) {
    let bounds = match chars.peek() {
        Some('*') => (0, OPEN_REPEAT),
        Some('+') => (1, 1 + OPEN_REPEAT),
        Some('?') => (0, 1),
        Some('{') => {
            chars.next();
            let lo = parse_number(pattern, chars);
            let hi = if chars.next_if_eq(&',').is_some() {
                parse_number(pattern, chars)
            } else {
                lo
            };
            assert!(
                chars.peek() == Some(&'}') && lo <= hi,
                "bad repeat in pattern {pattern:?}"
            );
            (lo, hi)
        }
        _ => return (1, 1),
    };
    // The quantifier character, or the closing brace.
    chars.next();
    bounds
}

impl Strategy for &'static str {
    type Value = String;
    fn sample(&self, runner: &mut TestRunner) -> String {
        let mut out = String::new();
        let mut chars = self.chars().peekable();
        while let Some(c) = chars.next() {
            let atom = match c {
                '.' => Atom::Dot,
                '[' => parse_class(self, &mut chars),
                '(' | ')' | '|' | '\\' | '^' | '$' | '*' | '+' | '?' | '{' | '}' => {
                    panic!("unsupported syntax {c:?} in pattern {self:?}")
                }
                c => Atom::Literal(c),
            };
            let (lo, hi) = parse_repeat(self, &mut chars);
            for _ in 0..runner.len(lo, hi) {
                out.push(atom.sample(runner.rng()));
            }
        }
        out
    }
}
