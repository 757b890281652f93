//! Code-only view of a Rust source file, for the source scans in this
//! crate's tests (the float-ordering rule in `float.rs`).
//!
//! A scan must match code, not prose: a `partial_cmp(` in a comment, a
//! doc example or a string is not a call. [`code_only`] drops every
//! comment (line, doc and nested block) and empties every literal —
//! string, byte string, C string, their raw forms with any `#` fence, and
//! char and byte literals — while keeping identifiers, lifetimes and raw
//! identifiers as written. Newlines survive everywhere, so counting them
//! before a match gives its line. Malformed input (an unterminated
//! literal or comment) runs to the end of the file; nothing panics.

/// `src` with comments removed and literal contents hidden: a string
/// literal becomes `""` and a char literal `''`, each keeping any
/// newlines it spanned.
pub(crate) fn code_only(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = Vec::with_capacity(b.len());
    let mut i = 0;
    while i < b.len() {
        let rest = &b[i..];
        let (len, quote) = if rest.starts_with(b"//") {
            let len = rest.iter().position(|&c| c == b'\n').unwrap_or(rest.len());
            (len, None)
        } else if rest.starts_with(b"/*") {
            (block_comment_len(rest), None)
        } else if let Some(lit) = literal(b, i) {
            lit
        } else {
            out.push(b[i]);
            i += 1;
            continue;
        };
        if let Some(q) = quote {
            out.push(q);
        }
        out.extend(rest[..len].iter().filter(|&&c| c == b'\n'));
        if let Some(q) = quote {
            out.push(q);
        }
        i += len;
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// Length of the block comment `rest` starts with, through the `*/`
/// that closes it (block comments nest), or to the end if none does.
fn block_comment_len(rest: &[u8]) -> usize {
    let (mut j, mut depth) = (0, 0);
    while j < rest.len() {
        if rest[j..].starts_with(b"/*") {
            depth += 1;
            j += 2;
        } else if rest[j..].starts_with(b"*/") {
            depth -= 1;
            j += 2;
            if depth == 0 {
                return j;
            }
        } else {
            j += 1;
        }
    }
    rest.len()
}

/// The literal starting at `b[i]`, if one does: its byte length and its
/// quote. Prefixes (`b`, `c`, `r`, `br`, `cr`) count only at the start
/// of a word, so `bar"` is not a byte string; `r#` opens a raw string
/// only when `#`s lead to a `"`, so `r#match` stays an identifier.
fn literal(b: &[u8], i: usize) -> Option<(usize, Option<u8>)> {
    let word_start = i == 0 || !(b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_');
    let rest = &b[i..];
    let mut j = 0;
    if word_start && matches!(rest.first(), Some(b'b' | b'c')) {
        j += 1;
    }
    let raw = word_start && rest.get(j) == Some(&b'r');
    if raw {
        j += 1;
        let hashes = rest[j..].iter().take_while(|&&c| c == b'#').count();
        if rest.get(j + hashes) != Some(&b'"') {
            return None;
        }
        j += hashes + 1;
        let mut fence = vec![b'"'];
        fence.resize(hashes + 1, b'#');
        let end = rest[j..]
            .windows(fence.len())
            .position(|w| w == fence.as_slice())
            .map_or(rest.len(), |at| j + at + fence.len());
        return Some((end, Some(b'"')));
    }
    let q = *rest.get(j)?;
    let char_literal =
        q == b'\'' && (rest.get(j + 1) == Some(&b'\\') || one_char_then_quote(b, i + j + 1));
    if q != b'"' && !char_literal {
        return None;
    }
    j += 1;
    while j < rest.len() && rest[j] != q {
        j += if rest[j] == b'\\' { 2 } else { 1 };
    }
    Some(((j + 1).min(rest.len()), Some(q)))
}

/// Whether exactly one (possibly multi-byte) char at `b[at..]` is
/// followed by `'`: `'x'` and `'é'` are chars, `'a>` is a lifetime.
fn one_char_then_quote(b: &[u8], at: usize) -> bool {
    let Some(&lead) = b.get(at) else {
        return false;
    };
    let width = match lead {
        0xF0.. => 4,
        0xE0.. => 3,
        0xC0.. => 2,
        _ => 1,
    };
    b.get(at + width) == Some(&b'\'')
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_block_comments_are_skipped() {
        assert_eq!(
            code_only("a /* x /* nested partial_cmp() */ y */ b"),
            "a  b"
        );
        // Newlines inside a comment are kept, so lines still count.
        assert_eq!(code_only("a /* x\n/* y\n */ */ b"), "a \n\n b");
    }

    #[test]
    fn string_contents_are_hidden() {
        assert_eq!(code_only(r#"a "partial_cmp().unwrap()" b"#), r#"a "" b"#);
        // Escaped quote does not end the string.
        assert_eq!(code_only(r#"a "x \" partial_cmp()" b"#), r#"a "" b"#);
        // A // inside a string is not a comment.
        assert_eq!(code_only(r#"a "http://x" b"#), r#"a "" b"#);
        // A multi-line string keeps its line count.
        assert_eq!(code_only("a \"x\ny\" b"), "a \"\n\" b");
    }

    #[test]
    fn raw_strings_with_fences() {
        assert_eq!(code_only(r###"a r"partial_cmp()" b"###), r#"a "" b"#);
        assert_eq!(code_only("a r#\"has \" quote\"# b"), r#"a "" b"#);
        assert_eq!(code_only("a r##\"fence \"# inside\"## b"), r#"a "" b"#);
        // A backslash is not an escape in a raw string.
        assert_eq!(code_only(r#"a r"C:\" b"#), r#"a "" b"#);
        // Byte and C-string variants.
        assert_eq!(code_only("a b\"partial_cmp()\" c"), r#"a "" c"#);
        assert_eq!(code_only("a br#\"partial_cmp()\"# c"), r#"a "" c"#);
        assert_eq!(code_only("a c\"partial_cmp()\" d"), r#"a "" d"#);
        assert_eq!(code_only("a cr\"partial_cmp()\" d"), r#"a "" d"#);
        // A prefix letter must start its word.
        assert_eq!(code_only("sub\"x\""), "sub\"\"");
    }

    #[test]
    fn raw_identifier_is_not_a_raw_string() {
        // `r#match` is an identifier; it must not swallow the rest of the
        // file hunting for a closing quote.
        let src = "let r#match = foo; bar";
        assert_eq!(code_only(src), src);
        assert_eq!(code_only("r#match \"x\" y"), "r#match \"\" y");
    }

    #[test]
    fn char_literals_and_lifetimes() {
        // '"' must not open a string.
        assert_eq!(code_only("a '\"' b \"partial_cmp()\" c"), "a '' b \"\" c");
        // Escaped quote char, Unicode escape, multi-byte and byte chars.
        assert_eq!(code_only(r"a '\'' b"), "a '' b");
        assert_eq!(code_only(r"a '\u{1F600}' b"), "a '' b");
        assert_eq!(code_only("a 'é' '→' b"), "a '' '' b");
        assert_eq!(code_only("a b'/' b'\\'' c"), "a '' '' c");
        // Lifetimes pass through without consuming the next token.
        for src in [
            "fn f<'a>(x: &'a str) {}",
            "&'static str",
            "&'_ str",
            "'outer: loop {}",
        ] {
            assert_eq!(code_only(src), src);
        }
    }

    #[test]
    fn doc_comments_are_line_comments() {
        assert_eq!(
            code_only("/// example: h.partial_cmp(0.5).unwrap()\nfn f() {}"),
            "\nfn f() {}"
        );
        assert_eq!(code_only("//! inner doc\n/** block doc */ x"), "\n x");
    }

    #[test]
    fn unterminated_literals_do_not_panic() {
        // An unclosed literal or comment runs to the end of the input.
        for (src, code) in [
            ("let s = \"never closed partial_cmp(", "let s = \"\""),
            ("let s = r#\"never closed partial_cmp(", "let s = \"\""),
            ("let s = \"escape at the end \\", "let s = \"\""),
            ("x /* never closed partial_cmp(", "x "),
            ("let c = '\\", "let c = ''"),
            // A lone quote is a lifetime's start, not a literal.
            ("let c = '", "let c = '"),
            ("let c = b'", "let c = b'"),
        ] {
            assert_eq!(code_only(src), code, "{src:?}");
        }
    }
}
