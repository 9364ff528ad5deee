//! SQL `LIKE` pattern matching.
//!
//! `%` matches any (possibly empty) substring, `_` matches exactly one
//! character, and a backslash escapes the next character. Matching is
//! case-sensitive, as in PostgreSQL's `LIKE` (the IMDB-JOB workload uses
//! case-sensitive patterns).
//!
//! A pattern is compiled once into a [`LikePattern`]: patterns made only of
//! literals and `%` — every pattern IMDB-JOB uses — become literal segments
//! matched with prefix / substring / suffix searches on bytes; patterns
//! with `_` or escapes run the general two-pointer matcher.
//!
//! [`LikePattern::match_dict`] decides a whole column dictionary at once,
//! reading the dictionary's byte arena ([`StrDict`]) rather than one string
//! per entry: `%w%` is one pass of the substring kernel over the arena,
//! `w%`, `%w` and exact patterns are slice compares at the entry offsets,
//! and a pattern of several literals scans for its first literal and
//! checks only the entries that contain it. One substring kernel serves
//! both paths: it tests 16 candidate positions per step for "first and
//! last byte of the literal both equal" with integer arithmetic on `u128`
//! words (safe code, no CPU feature detection) and compares the literal
//! only where both hold.

use fj_storage::StrDict;

/// A compiled `LIKE` pattern.
#[derive(Debug, Clone)]
pub struct LikePattern(Kind);

#[derive(Debug, Clone)]
enum Kind {
    /// No wildcard at all: the text must equal the literal.
    Exact(String),
    /// Literals separated by `%`: the text starts with `prefix`, ends with
    /// `suffix`, and contains the `inner` literals in order in between.
    Segments {
        prefix: String,
        inner: Vec<String>,
        suffix: String,
    },
    /// `_` or `\` present: matched by [`match_general`].
    General(String),
}

impl LikePattern {
    /// Compiles `pattern`.
    pub fn new(pattern: &str) -> Self {
        if pattern.contains(['_', '\\']) {
            return LikePattern(Kind::General(pattern.to_string()));
        }
        let mut parts = pattern.split('%');
        let prefix = parts.next().expect("split yields at least one part");
        let Some(suffix) = parts.next_back() else {
            return LikePattern(Kind::Exact(prefix.to_string()));
        };
        LikePattern(Kind::Segments {
            prefix: prefix.to_string(),
            // Empty inner segments (`%%`) match anywhere; drop them.
            inner: parts
                .filter(|s| !s.is_empty())
                .map(str::to_string)
                .collect(),
            suffix: suffix.to_string(),
        })
    }

    /// Returns true when `text` matches the pattern.
    ///
    /// Segment search works on bytes: a UTF-8 literal can only occur in
    /// UTF-8 text at a character boundary, so byte offsets never split a
    /// character.
    pub fn matches(&self, text: &str) -> bool {
        match &self.0 {
            Kind::Exact(literal) => text == literal,
            Kind::Segments {
                prefix,
                inner,
                suffix,
            } => {
                let text = text.as_bytes();
                // The emptiness tests are not redundant: comparing against
                // an empty `String` hands `memcmp` a dangling pointer with
                // length 0, and that call measured ≈ 90 ns on x86-64 glibc
                // (2 ns with a valid pointer; presumably a suppressed fault
                // on a masked load) — per entry, several times the cost of
                // the search itself.
                if text.len() < prefix.len() + suffix.len()
                    || !(prefix.is_empty() || text.starts_with(prefix.as_bytes()))
                    || !(suffix.is_empty() || text.ends_with(suffix.as_bytes()))
                {
                    return false;
                }
                // Leftmost placement of each inner literal leaves the most
                // room for the next one, so greedy search is exact.
                let (mut at, end) = (prefix.len(), text.len() - suffix.len());
                for literal in inner {
                    match find(&text[..end], literal.as_bytes(), at) {
                        Some(hit) => at = hit + literal.len(),
                        None => return false,
                    }
                }
                true
            }
            Kind::General(pattern) => match_general(pattern, text),
        }
    }

    /// Decides every entry of `dict`: `out[code]` is
    /// `self.matches(dict.get(code))`, computed over the byte arena.
    pub fn match_dict(&self, dict: &StrDict) -> Vec<bool> {
        let entries = dict.iter_bytes();
        match &self.0 {
            Kind::Exact(literal) => entries.map(|e| e == literal.as_bytes()).collect(),
            Kind::Segments {
                prefix,
                inner,
                suffix,
            } => match (prefix.is_empty(), inner.as_slice(), suffix.is_empty()) {
                (true, [], true) => vec![true; dict.len()],
                (false, [], true) => entries.map(|e| e.starts_with(prefix.as_bytes())).collect(),
                (true, [], false) => entries.map(|e| e.ends_with(suffix.as_bytes())).collect(),
                (true, [literal], true) => scan_dict(dict, literal.as_bytes(), |_| true),
                _ => {
                    let first = std::iter::once(prefix)
                        .chain(inner)
                        .chain([suffix])
                        .find(|l| !l.is_empty())
                        .expect("a pattern of several segments has a literal");
                    scan_dict(dict, first.as_bytes(), |code| self.matches(dict.get(code)))
                }
            },
            Kind::General(pattern) => dict.iter().map(|e| match_general(pattern, e)).collect(),
        }
    }
}

/// One pass of [`find`] over `dict`'s arena for the non-empty `literal`:
/// each entry holding an occurrence (wholly inside it — a hit that runs
/// past its entry's end spans two entries and is rejected) is marked with
/// `check(code)`, and the scan resumes at the next entry, so every entry
/// is looked at most once.
fn scan_dict(dict: &StrDict, literal: &[u8], check: impl Fn(usize) -> bool) -> Vec<bool> {
    let (bytes, ends) = (dict.bytes(), dict.ends());
    let mut out = vec![false; ends.len()];
    let (mut at, mut code) = (0, 0);
    while let Some(hit) = find(bytes, literal, at) {
        // Entries are found by walking forward: the hits ascend.
        while ends[code] as usize <= hit {
            code += 1;
        }
        let end = ends[code] as usize;
        out[code] = hit + literal.len() <= end && check(code);
        at = end;
    }
    out
}

/// Candidate start positions [`find`] tests per step: one `u128` of bytes.
const LANES: usize = 16;
/// `0x01` in every byte of a step.
const ONES: u128 = u128::MAX / 255;
/// `0x80` in every byte of a step.
const HIGH: u128 = ONES << 7;

/// Position of the first occurrence of the non-empty `needle` in `hay` at
/// or after `from`.
///
/// Each step loads the 16 bytes at the candidate starts and the 16 at the
/// candidate ends (`start + needle.len() - 1`) as two `u128`s and XORs them
/// with the needle's first and last byte repeated, so a byte of the OR is
/// zero exactly where both ends match; an exact zero-byte test (no carry
/// crosses a byte) turns that into one mask bit per candidate, and only
/// candidates whose bit is set get a slice compare. On dictionary text that
/// rejects almost every position in one step of plain integer arithmetic,
/// and it costs nothing to set up, so it serves one short entry as well as
/// a whole arena. The last `< 16` candidates are tested one by one.
fn find(hay: &[u8], needle: &[u8], from: usize) -> Option<usize> {
    let (&first, &last) = (needle.first()?, needle.last()?);
    let span = needle.len() - 1;
    // Candidate starts are `from..stop`.
    let stop = hay.len().checked_sub(span)?;
    let (firsts, lasts) = (ONES * u128::from(first), ONES * u128::from(last));
    let load = |at: usize| u128::from_le_bytes(hay[at..at + LANES].try_into().expect("16 bytes"));
    let mut at = from;
    while at + LANES <= stop {
        let diff = (load(at) ^ firsts) | (load(at + span) ^ lasts);
        // The high bit of each byte of `diff` that is zero.
        let mut mask = !(((diff & !HIGH) + !HIGH) | diff) & HIGH;
        while mask != 0 {
            let start = at + mask.trailing_zeros() as usize / 8;
            if hay[start..=start + span] == *needle {
                return Some(start);
            }
            mask &= mask - 1;
        }
        at += LANES;
    }
    (at..stop).find(|&i| hay[i] == first && hay[i + span] == last && hay[i..=i + span] == *needle)
}

/// Returns true when `text` matches the SQL LIKE `pattern`.
///
/// Compiles the pattern on every call; to match one pattern against many
/// texts build a [`LikePattern`] once.
pub fn like_match(pattern: &str, text: &str) -> bool {
    LikePattern::new(pattern).matches(text)
}

/// The general matcher: the classic two-pointer greedy algorithm with
/// backtracking on the last `%`, which runs in O(|text|·|pattern|) worst
/// case. It walks both strings by byte offset and decodes one character at
/// a time, so it allocates nothing.
fn match_general(pattern: &str, text: &str) -> bool {
    let char_at = |s: &str, i: usize| s[i..].chars().next();
    let (mut pi, mut ti) = (0usize, 0usize);
    // Position after the most recent '%' (pattern) and the text position we
    // will retry from on mismatch.
    let mut star: Option<(usize, usize)> = None;

    while let Some(tc) = char_at(text, ti) {
        if let Some(pc) = char_at(pattern, pi) {
            let after = pi + pc.len_utf8();
            match pc {
                '%' => {
                    star = Some((after, ti));
                    pi = after;
                    continue;
                }
                '_' => {
                    pi = after;
                    ti += tc.len_utf8();
                    continue;
                }
                _ => {
                    // A backslash escapes the next character; a trailing
                    // backslash stands for itself.
                    let (literal, next) = match char_at(pattern, after) {
                        Some(escaped) if pc == '\\' => (escaped, after + escaped.len_utf8()),
                        _ => (pc, after),
                    };
                    if literal == tc {
                        pi = next;
                        ti += tc.len_utf8();
                        continue;
                    }
                }
            }
        }
        // Mismatch: backtrack to the last '%' and consume one more text char.
        match star {
            Some((sp, st)) => {
                let skipped = char_at(text, st).expect("retry position precedes `ti`");
                let retry = st + skipped.len_utf8();
                pi = sp;
                ti = retry;
                star = Some((sp, retry));
            }
            None => return false,
        }
    }
    // Remaining pattern must be all '%'.
    pattern[pi..].bytes().all(|b| b == b'%')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_match_without_wildcards() {
        assert!(like_match("abc", "abc"));
        assert!(!like_match("abc", "abd"));
        assert!(!like_match("abc", "ab"));
        assert!(!like_match("ab", "abc"));
    }

    #[test]
    fn percent_matches_any_run() {
        assert!(like_match("%", ""));
        assert!(like_match("%", "anything"));
        assert!(like_match("a%", "abcdef"));
        assert!(like_match("%f", "abcdef"));
        assert!(like_match("%cd%", "abcdef"));
        assert!(!like_match("%cd%", "abdcef"));
        assert!(like_match("a%c%e%", "abcde"));
    }

    #[test]
    fn underscore_matches_one_char() {
        assert!(like_match("a_c", "abc"));
        assert!(!like_match("a_c", "ac"));
        assert!(!like_match("a_c", "abbc"));
        assert!(like_match("___", "xyz"));
    }

    #[test]
    fn mixed_wildcards() {
        assert!(like_match("%an_", "Anna and".to_lowercase().as_str()));
        assert!(like_match("%An%", "Banana An Split"));
        assert!(like_match("_%_", "ab"));
        assert!(!like_match("_%_", "a"));
    }

    #[test]
    fn escape_literal_wildcards() {
        assert!(like_match("100\\%", "100%"));
        assert!(!like_match("100\\%", "1000"));
        assert!(like_match("a\\_b", "a_b"));
        assert!(!like_match("a\\_b", "axb"));
    }

    #[test]
    fn case_sensitive() {
        assert!(!like_match("%an%", "Anna"));
        assert!(like_match("%nn%", "Anna"));
    }

    #[test]
    fn pathological_backtracking_terminates() {
        let text = "a".repeat(200);
        assert!(like_match("%a%a%a%a%a%a%a%a%b%", &(text.clone() + "b")));
        assert!(!like_match("%a%a%a%a%a%a%a%a%b%", &text));
    }

    #[test]
    fn find_tests_every_candidate_position() {
        // 70 bytes: four full 16-candidate steps and a scalar tail.
        let hay: Vec<u8> = (0..70u8).map(|i| b'a' + i % 3).collect();
        for needle in [&b"a"[..], b"ca", b"bcab", b"abcabcabcabcabcabca", b"cc"] {
            for from in [0, 1, 15, 16, 17, 40, 69, 70] {
                let naive =
                    (from..=hay.len() - needle.len()).find(|&i| hay[i..].starts_with(needle));
                assert_eq!(find(&hay, needle, from), naive, "{needle:?} from {from}");
            }
        }
    }

    #[test]
    fn dictionary_matcher_rejects_hits_across_entries() {
        let mut dict = StrDict::new();
        for s in ["", "xab", "cx", "abc", "", "日本", "c"] {
            dict.push(s).unwrap();
        }
        let bc = LikePattern::new("%bc%").match_dict(&dict);
        assert_eq!(bc, [false, false, false, true, false, false, false]);
        for pattern in ["%b%", "ab%", "%c", "", "%", "%本%", "x%c%", "%a%c", "_b%"] {
            let p = LikePattern::new(pattern);
            let per_entry: Vec<bool> = dict.iter().map(|e| p.matches(e)).collect();
            assert_eq!(p.match_dict(&dict), per_entry, "{pattern}");
        }
    }

    #[test]
    fn empty_pattern_and_text() {
        assert!(like_match("", ""));
        assert!(!like_match("", "x"));
        assert!(!like_match("x", ""));
        assert!(like_match("%%", ""));
    }
}
