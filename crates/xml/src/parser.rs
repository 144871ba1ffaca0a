//! A from-scratch, dependency-free XML parser.
//!
//! The parser covers the subset of XML 1.0 required by XMark-class documents:
//! elements, attributes, character data, comments, CDATA sections, processing
//! instructions, an (ignored) DOCTYPE declaration, and the five predefined
//! entities plus numeric character references. It builds a [`Document`]
//! directly in document order, which is exactly the single pass the paper
//! relies on for on-the-fly DOL construction.

use crate::document::{Document, DocumentBuilder, NodeId};
use crate::error::ParseError;
use crate::tag::TEXT_TAG;

/// Tuning knobs for [`parse_with_options`].
#[derive(Debug, Clone)]
pub struct ParseOptions {
    /// Keep character data that consists only of whitespace (default: false).
    /// XMark-style data documents use indentation whitespace that is not
    /// semantically meaningful.
    pub keep_whitespace_text: bool,
    /// Represent attributes as `@name` pseudo-element children (default: true).
    /// When false, attributes are dropped.
    pub attributes_as_nodes: bool,
    /// When an element's entire content is a single text chunk, store it as
    /// the element's value instead of a `#text` child (default: true). This
    /// matches the NoK convention of keeping values out of the structure.
    pub coalesce_single_text: bool,
}

impl Default for ParseOptions {
    fn default() -> Self {
        Self {
            keep_whitespace_text: false,
            attributes_as_nodes: true,
            coalesce_single_text: true,
        }
    }
}

/// Parses an XML document with default [`ParseOptions`].
pub fn parse(input: &str) -> Result<Document, ParseError> {
    parse_with_options(input, &ParseOptions::default())
}

/// Parses an XML document with explicit options.
pub fn parse_with_options(input: &str, opts: &ParseOptions) -> Result<Document, ParseError> {
    Parser::new(input, opts.clone()).run()
}

/// Per-open-element parse state used to implement text coalescing.
struct OpenElem {
    id: NodeId,
    children: usize,
    pending_text: Option<String>,
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    line: usize,
    opts: ParseOptions,
    builder: DocumentBuilder,
    stack: Vec<OpenElem>,
    values: Vec<(NodeId, String)>,
    root_seen: bool,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str, opts: ParseOptions) -> Self {
        Self {
            bytes: input.as_bytes(),
            pos: 0,
            line: 1,
            opts,
            builder: DocumentBuilder::new(),
            stack: Vec::new(),
            values: Vec::new(),
            root_seen: false,
        }
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError::new(self.pos, self.line, message)
    }

    #[inline]
    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    #[inline]
    fn bump(&mut self) -> Option<u8> {
        let b = self.peek()?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn starts_with(&self, s: &str) -> bool {
        self.bytes[self.pos..].starts_with(s.as_bytes())
    }

    fn advance(&mut self, n: usize) {
        for _ in 0..n {
            self.bump();
        }
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\r' | b'\n')) {
            self.bump();
        }
    }

    /// Consumes characters until `delim` is found; returns the consumed slice
    /// (excluding the delimiter, which is also consumed).
    fn until(&mut self, delim: &str) -> Result<&'a str, ParseError> {
        let start = self.pos;
        while self.pos < self.bytes.len() {
            if self.starts_with(delim) {
                let s = &self.bytes[start..self.pos];
                self.advance(delim.len());
                // Safety: input was a &str and we only split at ASCII delimiters.
                return std::str::from_utf8(s).map_err(|_| self.err("invalid UTF-8"));
            }
            self.bump();
        }
        Err(self.err(format!("unterminated construct, expected `{delim}`")))
    }

    fn read_name(&mut self) -> Result<String, ParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            let ok = b.is_ascii_alphanumeric()
                || matches!(b, b'_' | b'-' | b'.' | b':')
                || (self.pos == start && b == b'@')
                || b >= 0x80;
            if !ok {
                break;
            }
            self.bump();
        }
        if self.pos == start {
            return Err(self.err("expected a name"));
        }
        Ok(String::from_utf8_lossy(&self.bytes[start..self.pos]).into_owned())
    }

    fn run(mut self) -> Result<Document, ParseError> {
        loop {
            // Text content (outside markup).
            if self.peek().is_none() {
                break;
            }
            if self.peek() != Some(b'<') {
                self.read_text()?;
                continue;
            }
            // Markup.
            if self.starts_with("<!--") {
                self.advance(4);
                self.until("-->")?;
            } else if self.starts_with("<![CDATA[") {
                self.advance(9);
                let data = self.until("]]>")?.to_owned();
                self.push_text(data)?;
            } else if self.starts_with("<!DOCTYPE") || self.starts_with("<!doctype") {
                self.skip_doctype()?;
            } else if self.starts_with("<?") {
                self.advance(2);
                self.until("?>")?;
            } else if self.starts_with("</") {
                self.advance(2);
                let name = self.read_name()?;
                self.skip_ws();
                if self.bump() != Some(b'>') {
                    return Err(self.err("expected `>` after closing tag name"));
                }
                self.close_element(&name)?;
            } else {
                self.bump(); // consume '<'
                self.open_element()?;
            }
        }
        if let Some(open) = self.stack.last() {
            let id = open.id;
            return Err(self.err(format!("unclosed element (node {id})")));
        }
        if !self.root_seen {
            return Err(self.err("document has no root element"));
        }
        let mut doc = self
            .builder
            .finish()
            .map_err(|e| ParseError::new(self.pos, self.line, e.to_string()))?;
        for (id, v) in self.values {
            doc.set_value(id, Some(&v));
        }
        Ok(doc)
    }

    fn skip_doctype(&mut self) -> Result<(), ParseError> {
        // Consume "<!DOCTYPE" then balance brackets to the matching '>'.
        self.advance(9);
        let mut depth = 0usize;
        while let Some(b) = self.bump() {
            match b {
                b'[' => depth += 1,
                b']' => depth = depth.saturating_sub(1),
                b'>' if depth == 0 => return Ok(()),
                _ => {}
            }
        }
        Err(self.err("unterminated DOCTYPE"))
    }

    fn read_text(&mut self) -> Result<(), ParseError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b == b'<' {
                break;
            }
            self.bump();
        }
        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid UTF-8 in text"))?;
        if !self.opts.keep_whitespace_text && raw.trim().is_empty() {
            return Ok(());
        }
        if self.stack.is_empty() {
            if raw.trim().is_empty() {
                return Ok(());
            }
            return Err(self.err("character data outside the root element"));
        }
        let text = decode_entities(raw, self)?;
        self.push_text(text)
    }

    fn push_text(&mut self, text: String) -> Result<(), ParseError> {
        let Some(top) = self.stack.last_mut() else {
            return Err(self.err("character data outside the root element"));
        };
        if self.opts.coalesce_single_text && top.children == 0 && top.pending_text.is_none() {
            top.pending_text = Some(text);
            return Ok(());
        }
        // Mixed content: flush any stashed text as a sibling #text node first.
        let stashed = top.pending_text.take();
        top.children += 1 + usize::from(stashed.is_some());
        if let Some(t) = stashed {
            self.builder.leaf(TEXT_TAG, Some(&t));
        }
        self.builder.leaf(TEXT_TAG, Some(&text));
        Ok(())
    }

    /// Flushes stashed text on the top-of-stack element before a child starts.
    fn flush_pending(&mut self) {
        if let Some(top) = self.stack.last_mut() {
            if let Some(t) = top.pending_text.take() {
                top.children += 1;
                self.builder.leaf(TEXT_TAG, Some(&t));
            }
        }
    }

    fn open_element(&mut self) -> Result<(), ParseError> {
        if self.stack.is_empty() && self.root_seen {
            return Err(self.err("multiple root elements"));
        }
        self.flush_pending();
        if let Some(top) = self.stack.last_mut() {
            top.children += 1;
        }
        let name = self.read_name()?;
        let id = self.builder.open(&name);
        self.root_seen = true;
        self.stack.push(OpenElem {
            id,
            children: 0,
            pending_text: None,
        });
        // Attributes.
        loop {
            self.skip_ws();
            match self.peek() {
                Some(b'>') => {
                    self.bump();
                    return Ok(());
                }
                Some(b'/') => {
                    self.bump();
                    if self.bump() != Some(b'>') {
                        return Err(self.err("expected `/>`"));
                    }
                    self.close_element(&name)?;
                    return Ok(());
                }
                Some(_) => {
                    let attr = self.read_name()?;
                    self.skip_ws();
                    if self.bump() != Some(b'=') {
                        return Err(self.err(format!("expected `=` after attribute `{attr}`")));
                    }
                    self.skip_ws();
                    let quote = self
                        .bump()
                        .filter(|&q| q == b'"' || q == b'\'')
                        .ok_or_else(|| self.err("expected quoted attribute value"))?;
                    let raw = self.until(if quote == b'"' { "\"" } else { "'" })?;
                    let value = decode_entities(raw, self)?;
                    if self.opts.attributes_as_nodes {
                        // The element pushed above is still the top.
                        if let Some(top) = self.stack.last_mut() {
                            top.children += 1;
                        }
                        self.builder.leaf(&format!("@{attr}"), Some(&value));
                    }
                }
                None => return Err(self.err("unterminated start tag")),
            }
        }
    }

    fn close_element(&mut self, name: &str) -> Result<(), ParseError> {
        let Some(top) = self.stack.pop() else {
            return Err(self.err(format!("closing tag `{name}` with no open element")));
        };
        let open_name = self.builder.tag_name_of(top.id).to_owned();
        if open_name != name {
            return Err(self.err(format!(
                "mismatched closing tag: expected `</{open_name}>`, found `</{name}>`"
            )));
        }
        if let Some(text) = top.pending_text {
            if top.children == 0 {
                // Single text chunk becomes the element's value.
                self.values.push((top.id, text));
            } else {
                self.builder.leaf(TEXT_TAG, Some(&text));
            }
        }
        self.builder.close();
        Ok(())
    }
}

/// Decodes the five predefined entities and numeric character references.
fn decode_entities(raw: &str, p: &Parser<'_>) -> Result<String, ParseError> {
    if !raw.contains('&') {
        return Ok(raw.to_owned());
    }
    let mut out = String::with_capacity(raw.len());
    let mut rest = raw;
    while let Some(amp) = rest.find('&') {
        out.push_str(&rest[..amp]);
        rest = &rest[amp..];
        let semi = rest
            .find(';')
            .ok_or_else(|| p.err("unterminated entity reference"))?;
        let ent = &rest[1..semi];
        match ent {
            "lt" => out.push('<'),
            "gt" => out.push('>'),
            "amp" => out.push('&'),
            "apos" => out.push('\''),
            "quot" => out.push('"'),
            _ if ent.starts_with("#x") || ent.starts_with("#X") => {
                let code = u32::from_str_radix(&ent[2..], 16)
                    .map_err(|_| p.err(format!("bad character reference `&{ent};`")))?;
                out.push(
                    char::from_u32(code)
                        .ok_or_else(|| p.err(format!("invalid code point {code}")))?,
                );
            }
            _ if ent.starts_with('#') => {
                let code: u32 = ent[1..]
                    .parse()
                    .map_err(|_| p.err(format!("bad character reference `&{ent};`")))?;
                out.push(
                    char::from_u32(code)
                        .ok_or_else(|| p.err(format!("invalid code point {code}")))?,
                );
            }
            _ => return Err(p.err(format!("unknown entity `&{ent};`"))),
        }
        rest = &rest[semi + 1..];
    }
    out.push_str(rest);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::TEXT_TAG;

    #[test]
    fn parses_simple_document() {
        let d = parse("<a><b/><c>hi</c></a>").unwrap();
        d.check_integrity().unwrap();
        assert_eq!(d.len(), 3);
        let c = NodeId(2);
        assert_eq!(d.name_of(c), "c");
        assert_eq!(d.node(c).value.as_deref(), Some("hi"));
    }

    #[test]
    fn attributes_become_pseudo_children() {
        let d = parse(r#"<item id="i1" featured="yes"><name>x</name></item>"#).unwrap();
        d.check_integrity().unwrap();
        let kids: Vec<_> = d
            .children(d.root())
            .map(|n| d.name_of(n).to_string())
            .collect();
        assert_eq!(kids, vec!["@id", "@featured", "name"]);
        assert_eq!(d.node(NodeId(1)).value.as_deref(), Some("i1"));
    }

    #[test]
    fn mixed_content_produces_text_nodes() {
        let d = parse("<text>alpha<bold>b</bold>omega</text>").unwrap();
        d.check_integrity().unwrap();
        let kids: Vec<_> = d
            .children(d.root())
            .map(|n| d.name_of(n).to_string())
            .collect();
        assert_eq!(kids, vec![TEXT_TAG, "bold", TEXT_TAG]);
        assert_eq!(d.node(NodeId(1)).value.as_deref(), Some("alpha"));
        assert_eq!(d.node(NodeId(3)).value.as_deref(), Some("omega"));
    }

    #[test]
    fn prolog_comments_cdata_doctype() {
        let d = parse(
            "<?xml version=\"1.0\"?><!DOCTYPE site [<!ELEMENT a (b)>]>\n\
             <!-- top comment --><a><![CDATA[raw <stuff>]]><b/></a>",
        )
        .unwrap();
        d.check_integrity().unwrap();
        let kids: Vec<_> = d
            .children(d.root())
            .map(|n| d.name_of(n).to_string())
            .collect();
        assert_eq!(kids, vec![TEXT_TAG, "b"]);
        assert_eq!(d.node(NodeId(1)).value.as_deref(), Some("raw <stuff>"));
    }

    #[test]
    fn entity_decoding() {
        let d = parse("<a>a &lt; b &amp;&amp; c &gt; d &#65;&#x42;</a>").unwrap();
        assert_eq!(d.node(d.root()).value.as_deref(), Some("a < b && c > d AB"));
    }

    #[test]
    fn whitespace_only_text_skipped_by_default() {
        let d = parse("<a>\n  <b/>\n  <c/>\n</a>").unwrap();
        assert_eq!(d.len(), 3);
        let opts = ParseOptions {
            keep_whitespace_text: true,
            ..Default::default()
        };
        let d2 = parse_with_options("<a>\n  <b/>\n</a>", &opts).unwrap();
        assert!(d2.len() > 2);
    }

    #[test]
    fn errors_are_reported_with_position() {
        let e = parse("<a><b></a>").unwrap_err();
        assert!(e.message.contains("mismatched"), "{e}");
        assert!(parse("<a>").is_err());
        assert!(parse("<a/><b/>").is_err());
        assert!(parse("no markup").is_err());
        assert!(parse("<a>&bogus;</a>").is_err());
        assert!(parse("").is_err());
    }

    #[test]
    fn self_closing_root() {
        let d = parse("<a/>").unwrap();
        assert_eq!(d.len(), 1);
        d.check_integrity().unwrap();
    }
}
