//! A from-scratch regular-expression engine for `grep` and `sed`.
//!
//! Supports POSIX BRE (the `grep` default) and ERE (`grep -E`): literals,
//! `.`, `*`, bracket classes with ranges and `[:classes:]`, `^`/`$`
//! anchors, and — in ERE (or via `\+` etc. in BRE) — `+`, `?`, `|`, and
//! grouping. Patterns compile to a Thompson NFA simulated with state sets,
//! so matching is linear in the line length with no exponential
//! backtracking (the property that lets `grep` stream gigabytes).
//!
//! Bytes are matched byte-wise (ASCII semantics); multi-byte UTF-8 text
//! passes through untouched because all metacharacters are ASCII.
//!
//! An unanchored, case-sensitive pattern that parses to a plain byte
//! string (`grep qqq`, `grep -F x`, BRE `a\.b`) skips the NFA in
//! [`Regex::is_match`] for a substring search; the NFA stays the
//! reference that the fast path is tested against.

mod nfa;
mod parse;

pub use nfa::Nfa;
pub use parse::{parse_pattern, Flavor, Node, RegexError};

/// A compiled regular expression.
pub struct Regex {
    nfa: Nfa,
    /// The bytes the pattern matches, when it is a plain literal that
    /// [`Regex::is_match`] may find by substring search.
    literal: Option<Vec<u8>>,
    anchored_start: bool,
    anchored_end: bool,
    icase: bool,
}

impl Regex {
    /// Compiles `pattern` in the given flavor.
    pub fn new(pattern: &str, flavor: Flavor, icase: bool) -> Result<Regex, RegexError> {
        let (node, anchored_start, anchored_end) = parse_pattern(pattern, flavor)?;
        Ok(Regex::from_node(&node, anchored_start, anchored_end, icase))
    }

    /// Compiles a fixed string (`grep -F`).
    pub fn fixed(text: &str, icase: bool) -> Regex {
        let node = Node::Concat(text.bytes().map(Node::Char).collect());
        Regex::from_node(&node, false, false, icase)
    }

    fn from_node(node: &Node, anchored_start: bool, anchored_end: bool, icase: bool) -> Regex {
        let literal = if anchored_start || anchored_end || icase {
            None
        } else {
            literal_bytes(node)
        };
        Regex {
            nfa: Nfa::compile(node, icase),
            literal,
            anchored_start,
            anchored_end,
            icase,
        }
    }

    /// Whether the line (without trailing newline) contains a match.
    ///
    /// Single pass over the line (no per-position restarts), which is
    /// what lets `grep` stream at disk speed.
    pub fn is_match(&self, line: &[u8]) -> bool {
        if let Some(literal) = &self.literal {
            return contains_literal(line, literal);
        }
        if self.anchored_start || self.anchored_end {
            return self.find_from(line, 0).is_some();
        }
        self.nfa.contains_match(line)
    }

    /// Finds the leftmost-longest match at or after `start`.
    ///
    /// Returns byte offsets `(begin, end)`.
    pub fn find_from(&self, line: &[u8], start: usize) -> Option<(usize, usize)> {
        let starts: Box<dyn Iterator<Item = usize>> = if self.anchored_start {
            if start == 0 {
                Box::new(std::iter::once(0))
            } else {
                return None;
            }
        } else {
            Box::new(start..=line.len())
        };
        for begin in starts {
            if let Some(end) = self.nfa.longest_match(line, begin) {
                if self.anchored_end && end != line.len() {
                    // Try to extend: longest_match already returned the
                    // longest, so an end-anchored match fails here unless
                    // some accepted length reaches the end.
                    if self.nfa.matches_to_end(line, begin) {
                        return Some((begin, line.len()));
                    }
                    continue;
                }
                return Some((begin, end));
            }
            if self.anchored_end && self.nfa.matches_to_end(line, begin) {
                return Some((begin, line.len()));
            }
        }
        None
    }

    /// Whether matching ignores ASCII case.
    pub fn ignores_case(&self) -> bool {
        self.icase
    }
}

/// The byte string `node` matches, if it is one `Char` or a non-empty
/// `Concat` of `Char`s.
fn literal_bytes(node: &Node) -> Option<Vec<u8>> {
    match node {
        Node::Char(b) => Some(vec![*b]),
        Node::Concat(parts) if !parts.is_empty() => parts
            .iter()
            .map(|part| match part {
                Node::Char(b) => Some(*b),
                _ => None,
            })
            .collect(),
        _ => None,
    }
}

/// Whether the non-empty `needle` occurs in `hay`: scans for its first
/// byte, then compares the rest in place.
fn contains_literal(hay: &[u8], needle: &[u8]) -> bool {
    let Some(last_start) = hay.len().checked_sub(needle.len()) else {
        return false;
    };
    let (first, rest) = (needle[0], &needle[1..]);
    let mut from = 0;
    while from <= last_start {
        let Some(i) = hay[from..=last_start].iter().position(|&b| b == first) else {
            return false;
        };
        let at = from + i;
        if hay[at + 1..at + needle.len()] == *rest {
            return true;
        }
        from = at + 1;
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bre(p: &str) -> Regex {
        Regex::new(p, Flavor::Bre, false).unwrap()
    }

    fn ere(p: &str) -> Regex {
        Regex::new(p, Flavor::Ere, false).unwrap()
    }

    #[test]
    fn literal_substring_search() {
        let r = bre("ell");
        assert!(r.is_match(b"hello"));
        assert!(!r.is_match(b"help"));
    }

    #[test]
    fn dot_and_star() {
        assert!(bre("a.c").is_match(b"xabcx"));
        assert!(!bre("a.c").is_match(b"ac"));
        assert!(bre("ab*c").is_match(b"ac"));
        assert!(bre("ab*c").is_match(b"abbbc"));
        assert!(bre(".*").is_match(b""));
    }

    #[test]
    fn anchors() {
        assert!(bre("^abc").is_match(b"abcdef"));
        assert!(!bre("^abc").is_match(b"xabc"));
        assert!(bre("def$").is_match(b"abcdef"));
        assert!(!bre("def$").is_match(b"defabc"));
        assert!(bre("^only$").is_match(b"only"));
        assert!(!bre("^only$").is_match(b"only more"));
        assert!(bre("^$").is_match(b""));
        assert!(!bre("^$").is_match(b"x"));
    }

    #[test]
    fn classes() {
        let r = bre("[0-9][0-9]*");
        assert!(r.is_match(b"abc 42 def"));
        assert!(!r.is_match(b"no digits"));
        assert!(bre("[^a-z]").is_match(b"A"));
        assert!(!bre("[^a-z]").is_match(b"abc"));
        assert!(bre("[[:digit:]]").is_match(b"7"));
        assert!(bre("[[:upper:][:digit:]]").is_match(b"Q"));
    }

    #[test]
    fn ere_operators() {
        assert!(ere("ab+c").is_match(b"abbc"));
        assert!(!ere("ab+c").is_match(b"ac"));
        assert!(ere("ab?c").is_match(b"ac"));
        assert!(ere("ab?c").is_match(b"abc"));
        assert!(ere("cat|dog").is_match(b"hotdog"));
        assert!(ere("(ab)+").is_match(b"ababab"));
        assert!(!ere("^(ab)+$").is_match(b"aba"));
    }

    #[test]
    fn bre_escaped_operators() {
        // In BRE, `\(` groups and `\+` repeats (common extension).
        // `\{0,\}` means zero-or-more, so the empty string matches.
        assert!(bre(r"\(ab\)\{0,\}").is_match(b""));
        assert!(bre(r"a\+").is_match(b"aa"));
        assert!(bre(r"x\|y").is_match(b"y"));
    }

    #[test]
    fn bre_plus_is_literal_unescaped() {
        assert!(bre("a+").is_match(b"a+"));
        assert!(!bre("a+").is_match(b"aa"));
    }

    #[test]
    fn case_insensitive() {
        let r = Regex::new("hello", Flavor::Bre, true).unwrap();
        assert!(r.is_match(b"say HELLO"));
        let r = Regex::new("[a-z]$", Flavor::Bre, true).unwrap();
        assert!(r.is_match(b"X"));
    }

    #[test]
    fn fixed_strings() {
        let r = Regex::fixed("a.c", false);
        assert!(r.is_match(b"xa.cx"));
        assert!(!r.is_match(b"abc"));
    }

    #[test]
    fn find_leftmost_longest() {
        let r = bre("ab*");
        assert_eq!(r.find_from(b"xxabbby", 0), Some((2, 6)));
        // Leftmost wins even when a longer match exists later.
        assert_eq!(r.find_from(b"a abbb", 0), Some((0, 1)));
        // Search can resume past a previous match.
        assert_eq!(r.find_from(b"a abbb", 1), Some((2, 6)));
    }

    #[test]
    fn empty_pattern_matches_everywhere() {
        let r = bre("");
        assert_eq!(r.find_from(b"abc", 0), Some((0, 0)));
    }

    #[test]
    fn invalid_patterns_error() {
        assert!(Regex::new("[abc", Flavor::Bre, false).is_err());
        assert!(Regex::new("(ab", Flavor::Ere, false).is_err());
        assert!(Regex::new("ab)", Flavor::Ere, false).is_err());
        assert!(Regex::new("*ab", Flavor::Ere, false).is_err());
    }

    #[test]
    fn the_temperature_filter() {
        // `grep -v 999` from the paper's §2.1 pipeline.
        let r = bre("999");
        assert!(r.is_match(b"9999"));
        assert!(!r.is_match(b"0042"));
    }

    #[test]
    fn no_exponential_blowup() {
        // (a|a)* style patterns kill backtrackers; NFA simulation is fine.
        let r = ere("(a|a)*b");
        let line = vec![b'a'; 2000];
        let t0 = std::time::Instant::now();
        assert!(!r.is_match(&line));
        assert!(t0.elapsed() < std::time::Duration::from_secs(2));
    }

    /// Seeded lines over a small alphabet (so needles recur, overlap and
    /// nearly match), including bytes >= 0x80 and empty lines.
    fn seeded_lines() -> Vec<Vec<u8>> {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        const ALPHABET: &[u8] = b"aabq.xy\xc3\xa9\xff";
        let mut rng = StdRng::seed_from_u64(12);
        let mut lines: Vec<Vec<u8>> = [
            "",
            "aaab",
            "xyaab",
            "aa",
            "a.b",
            "qqqq",
            "\u{e9}t\u{e9}",
            "yaabqaabqaabqx",
        ]
        .iter()
        .map(|l| l.as_bytes().to_vec())
        .collect();
        for _ in 0..2000 {
            let len = rng.random_range(0..12usize);
            lines.push(
                (0..len)
                    .map(|_| ALPHABET[rng.random_range(0..ALPHABET.len())])
                    .collect(),
            );
        }
        lines
    }

    #[test]
    fn literal_fast_path_agrees_with_the_nfa() {
        let literals = [
            ("aab", Regex::new("aab", Flavor::Bre, false).unwrap()),
            ("q", Regex::new("q", Flavor::Ere, false).unwrap()),
            ("qqq", Regex::new("qqq", Flavor::Bre, false).unwrap()),
            ("a\\.b", Regex::new(r"a\.b", Flavor::Bre, false).unwrap()),
            ("\u{e9}", Regex::new("\u{e9}", Flavor::Bre, false).unwrap()),
            ("a.b -F", Regex::fixed("a.b", false)),
            ("long -F", Regex::fixed("aabqaabqaabqx", false)),
            ("y\u{e9} -F", Regex::fixed("y\u{e9}", false)),
            // A group is part of the tree, not of the matched bytes.
            (
                r"\(ab\)",
                Regex::new(r"\(ab\)", Flavor::Bre, false).unwrap(),
            ),
        ];
        let lines = seeded_lines();
        for (name, re) in &literals {
            assert!(re.literal.is_some(), "{name} should take the fast path");
            let mut hits = 0;
            for line in &lines {
                let want = re.nfa.contains_match(line);
                assert_eq!(re.is_match(line), want, "{name} on {line:?}");
                hits += want as usize;
            }
            assert!(hits > 0, "{name} never matched");
        }
        assert!(bre("aab").is_match(b"aaab"));
        assert!(bre("aab").is_match(b"xyaab"));
        assert!(!Regex::fixed("aabqaabqaabqx", false).is_match(b"aab"));
    }

    #[test]
    fn only_plain_unanchored_case_sensitive_literals_skip_the_nfa() {
        let nfa_only = [
            Regex::new("aab", Flavor::Bre, true).unwrap(),
            Regex::fixed("aab", true),
            Regex::new("^aab", Flavor::Bre, false).unwrap(),
            Regex::new("aab$", Flavor::Bre, false).unwrap(),
            Regex::new("a.b", Flavor::Bre, false).unwrap(),
            Regex::new("a*b", Flavor::Bre, false).unwrap(),
            Regex::new("", Flavor::Bre, false).unwrap(),
            Regex::fixed("", false),
        ];
        for re in &nfa_only {
            assert!(re.literal.is_none());
        }
        assert!(nfa_only[0].is_match(b"xAaB"));
        assert!(!nfa_only[2].is_match(b"xaab"));
        assert!(nfa_only[3].is_match(b"xaab"));
        assert!(nfa_only[7].is_match(b""));
    }
}
