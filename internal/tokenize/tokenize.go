// Package tokenize extracts keywords from XML tag names and text values.
//
// Keyword matching in XRefine is case-insensitive and term-based: both the
// tag name of an element and every term inside its text value are keywords
// of that node. Tokenization is deliberately simple (Unicode
// letters/digits, lowercased) so that the same function governs index
// construction, query parsing and refinement-rule generation — any mismatch
// between those three would silently break keyword lookup.
package tokenize

import (
	"strings"
	"unicode"
	"unicode/utf8"
)

// MaxTermBytes bounds a term's length in bytes: Normalize keeps the
// longest prefix, cut at a rune boundary, that fits. Index and query pass
// through the same cut, so an overlong word still finds itself, and every
// key the index stores stays far below a storage cell. 255 is Lucene
// StandardAnalyzer's default maxTokenLength.
const MaxTermBytes = 255

// termRune reports whether r may appear in a canonical term: a digit, or a
// letter that is its own lowercase form (covers cased lowercase letters and
// caseless scripts such as CJK alike).
func termRune(r rune) bool {
	return unicode.IsDigit(r) || (unicode.IsLetter(r) && unicode.ToLower(r) == r)
}

// Term reports whether s is a single well-formed term: non-empty and made
// only of canonical term runes.
func Term(s string) bool {
	if s == "" {
		return false
	}
	for _, r := range s {
		if !termRune(r) {
			return false
		}
	}
	return true
}

// Normalize lowercases s and strips everything but letters and digits,
// producing the canonical form of a single term, at most MaxTermBytes
// long. Letters with no canonical lowercase form (rare typographic
// variants) are dropped. It returns "" when nothing survives.
func Normalize(s string) string {
	var b strings.Builder
	b.Grow(min(len(s), MaxTermBytes))
	for _, r := range s {
		if !unicode.IsLetter(r) && !unicode.IsDigit(r) {
			continue
		}
		if l := unicode.ToLower(r); termRune(l) {
			if b.Len()+utf8.RuneLen(l) > MaxTermBytes {
				break
			}
			b.WriteRune(l)
		}
	}
	return b.String()
}

// Text splits free text into normalized terms. Runs of letters and digits
// form terms; everything else separates them.
func Text(s string) []string { return AppendText(nil, s) }

// AppendText appends the terms Text would return for s to dst and returns
// the extended slice.
func AppendText(dst []string, s string) []string {
	terms := dst
	start := -1
	flush := func(end int) {
		if start >= 0 {
			if t := Normalize(s[start:end]); t != "" {
				terms = append(terms, t)
			}
			start = -1
		}
	}
	for i, r := range s {
		if unicode.IsLetter(r) || unicode.IsDigit(r) {
			if start < 0 {
				start = i
			}
		} else {
			flush(i)
		}
	}
	flush(len(s))
	return terms
}

// Query splits a user keyword query into normalized terms. Queries separate
// keywords with whitespace and commas; a keyword that normalizes to nothing
// is dropped.
func Query(s string) []string {
	fields := strings.FieldsFunc(s, func(r rune) bool {
		return unicode.IsSpace(r) || r == ','
	})
	terms := make([]string, 0, len(fields))
	for _, f := range fields {
		if t := Normalize(f); t != "" {
			terms = append(terms, t)
		}
	}
	return terms
}

// Tag normalizes an XML tag name into a keyword term.
func Tag(s string) string { return Normalize(s) }
