//! SQL `LIKE` pattern matching.
//!
//! `%` matches any (possibly empty) substring, `_` matches exactly one
//! character, and a backslash escapes the next character. Matching is
//! case-sensitive, as in PostgreSQL's `LIKE` (the IMDB-JOB workload uses
//! case-sensitive patterns).
//!
//! A pattern is compiled once into a [`LikePattern`] and then matched
//! against many texts (a column dictionary, a list of most-common values):
//! patterns made only of literals and `%` — every pattern IMDB-JOB uses —
//! become literal segments matched with prefix/substring/suffix searches on
//! bytes; patterns with `_` or escapes run the general two-pointer matcher.

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
                let mut rest = &text[prefix.len()..text.len() - suffix.len()];
                for literal in inner {
                    match find_bytes(rest, literal.as_bytes()) {
                        Some(at) => rest = &rest[at + literal.len()..],
                        None => return false,
                    }
                }
                true
            }
            Kind::General(pattern) => match_general(pattern, text),
        }
    }
}

/// Position of the first occurrence of the non-empty `needle` in `hay`.
///
/// Dictionary entries are short (tens of bytes), where skipping to the
/// needle's first byte and comparing beats the set-up cost of `str::find`'s
/// two-way searcher, which would be paid once per entry.
fn find_bytes(hay: &[u8], needle: &[u8]) -> Option<usize> {
    let (&first, tail) = needle.split_first().expect("inner literals are non-empty");
    let last_start = hay.len().checked_sub(needle.len())?;
    let mut from = 0;
    while from <= last_start {
        from += hay[from..=last_start].iter().position(|&b| b == first)?;
        if &hay[from + 1..from + needle.len()] == tail {
            return Some(from);
        }
        from += 1;
    }
    None
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
    fn empty_pattern_and_text() {
        assert!(like_match("", ""));
        assert!(!like_match("", "x"));
        assert!(!like_match("x", ""));
        assert!(like_match("%%", ""));
    }
}
