package xmltree

import "unicode/utf8"

// AppendJSONString appends s as a quoted JSON string with encoding/json's
// default (HTML-escaping) rules.
func AppendJSONString[S string | []byte](dst []byte, s S) []byte {
	dst = append(dst, '"')
	dst = AppendJSONEscaped(dst, s)
	return append(dst, '"')
}

const hexDigits = "0123456789abcdef"

// AppendJSONEscaped appends the escaped body of s (no surrounding quotes),
// byte-identical to encoding/json with SetEscapeHTML(true): control
// characters, quote and backslash escaped; <, >, & as \u00XX; invalid
// UTF-8 byte as the six-byte escape \ufffd; U+2028/U+2029 as \u2028/\u2029.
func AppendJSONEscaped[S string | []byte](dst []byte, s S) []byte {
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			dst = append(dst, s[start:i]...)
			switch c {
			case '\\', '"':
				dst = append(dst, '\\', c)
			case '\b':
				dst = append(dst, '\\', 'b')
			case '\f':
				dst = append(dst, '\\', 'f')
			case '\n':
				dst = append(dst, '\\', 'n')
			case '\r':
				dst = append(dst, '\\', 'r')
			case '\t':
				dst = append(dst, '\\', 't')
			default:
				dst = append(dst, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		// A rune is at most UTFMax bytes; converting no more keeps a
		// []byte s from allocating a string of its whole tail.
		r, size := utf8.DecodeRuneInString(string(s[i:min(i+utf8.UTFMax, len(s))]))
		if r == utf8.RuneError && size == 1 {
			dst = append(dst, s[start:i]...)
			dst = append(dst, `\ufffd`...)
			i += size
			start = i
			continue
		}
		if r == '\u2028' || r == '\u2029' {
			dst = append(dst, s[start:i]...)
			dst = append(dst, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
			i += size
			start = i
			continue
		}
		i += size
	}
	return append(dst, s[start:]...)
}

// plainByte reports whether c is printable ASCII that Go quoting and then
// JSON escaping both leave as it is.
func plainByte(c byte) bool {
	return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// notPlain reports whether r is anything but a plainByte.
func notPlain(r rune) bool { return r >= utf8.RuneSelf || !plainByte(byte(r)) }
