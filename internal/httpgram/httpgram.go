// Package httpgram models HTTP/1.1 GET requests at the grammar level
// (Appendix B, Figure 7 of the paper): every token of the request line, the
// Host header word, the hostname, and the delimiters are independently
// settable so that CenFuzz can render deliberately malformed requests, and
// so that middleboxes and endpoints can parse them with configurable
// strictness.
package httpgram

import (
	"bytes"
	"fmt"
	"strings"
)

// Canonical grammar tokens for a well-formed request.
const (
	DefaultMethod    = "GET"
	DefaultPath      = "/"
	DefaultVersion   = "HTTP/1.1"
	DefaultHostWord  = "Host:"
	DefaultDelimiter = "\r\n"
)

// Header is one additional header line rendered verbatim as Name + ": " +
// Value (the canonical form); Raw overrides the rendering entirely when set,
// allowing malformed header lines.
type Header struct {
	Name  string
	Value string
	Raw   string
}

// render returns the header line without the trailing delimiter.
func (h Header) render() string {
	if h.Raw != "" {
		return h.Raw
	}
	return h.Name + ": " + h.Value
}

// Request is a grammar-level HTTP request. The zero value is not useful;
// construct with NewRequest and mutate the fields a fuzzing strategy targets.
type Request struct {
	Method    string // request method word, e.g. "GET", "PATCH", "GeT", "GE", ""
	Path      string // request target, e.g. "/", "?", "z"
	Version   string // protocol version word, e.g. "HTTP/1.1", "XXXX/1.1", "HTTP/ 1.1"
	HostWord  string // the Host header field word including colon, e.g. "Host:", "HostHeader:", "ost:"
	Hostname  string // the value of the Host header, the censorship trigger
	Delimiter string // line delimiter, canonically "\r\n"; Remove strategies use "\r" or "\n"
	Headers   []Header
	// OmitHostLine drops the Host header line entirely (one of the
	// Hostname Alternate fuzzing permutations).
	OmitHostLine bool
}

// NewRequest returns a canonical GET request for hostname.
func NewRequest(hostname string) *Request {
	return &Request{
		Method:    DefaultMethod,
		Path:      DefaultPath,
		Version:   DefaultVersion,
		HostWord:  DefaultHostWord,
		Hostname:  hostname,
		Delimiter: DefaultDelimiter,
	}
}

// Clone returns a deep copy of the request.
func (r *Request) Clone() *Request {
	c := *r
	c.Headers = append([]Header(nil), r.Headers...)
	return &c
}

// Render produces the raw request bytes sent on the wire:
//
//	<Method> <Path> <Version><Delim><HostWord> <Hostname><Delim>[headers...]<Delim>
func (r *Request) Render() []byte {
	var b strings.Builder
	b.WriteString(r.Method)
	b.WriteString(" ")
	b.WriteString(r.Path)
	b.WriteString(" ")
	b.WriteString(r.Version)
	b.WriteString(r.Delimiter)
	if !r.OmitHostLine {
		b.WriteString(r.HostWord)
		b.WriteString(" ")
		b.WriteString(r.Hostname)
		b.WriteString(r.Delimiter)
	}
	for _, h := range r.Headers {
		b.WriteString(h.render())
		b.WriteString(r.Delimiter)
	}
	b.WriteString(r.Delimiter)
	return []byte(b.String())
}

// String implements fmt.Stringer with escaped delimiters for logging.
func (r *Request) String() string {
	return fmt.Sprintf("%q", r.Render())
}

// Parsed is the result of parsing raw request bytes.
type Parsed struct {
	Method   string
	Path     string
	Version  string
	Host     string   // value of the recognized Host header, "" if absent
	HostWord string   // the field word that carried the host, e.g. "Host:"
	Headers  []Header // all header lines after the request line
	// Violations records grammar problems a strict server would reject.
	Violations []Violation
}

// Violation is a grammar problem detected while parsing.
type Violation string

// Grammar violations surfaced by Parse. Endpoint servers map these to HTTP
// error statuses (§6.3: "400 Bad Request, 403 Forbidden, 301 Moved
// Permanently and 505 HTTP Version Not Supported").
const (
	ViolationBadRequestLine  Violation = "bad-request-line"
	ViolationUnknownMethod   Violation = "unknown-method"
	ViolationBadVersion      Violation = "bad-version"
	ViolationMissingHost     Violation = "missing-host"
	ViolationBadDelimiter    Violation = "bad-delimiter"
	ViolationMalformedHeader Violation = "malformed-header"
)

// validMethods are the request methods a conforming origin server accepts.
var validMethods = map[string]bool{
	"GET": true, "HEAD": true, "POST": true, "PUT": true,
	"PATCH": true, "DELETE": true, "OPTIONS": true, "TRACE": true,
}

// ValidMethod reports whether m is a standard HTTP request method
// (case-sensitive, per RFC 7231).
func ValidMethod(m string) bool { return validMethods[m] }

// splitLines splits raw request bytes into lines, tolerating \r\n, \n, and
// bare \r delimiters. It reports whether every line used the canonical \r\n.
func splitLines(raw string) (lines []string, canonical bool) {
	canonical = true
	for len(raw) > 0 {
		iN := strings.IndexByte(raw, '\n')
		iR := strings.IndexByte(raw, '\r')
		switch {
		case iR >= 0 && iN == iR+1: // \r\n
			lines = append(lines, raw[:iR])
			raw = raw[iN+1:]
		case iN >= 0 && (iR < 0 || iN < iR): // bare \n
			lines = append(lines, raw[:iN])
			raw = raw[iN+1:]
			canonical = false
		case iR >= 0: // bare \r
			lines = append(lines, raw[:iR])
			raw = raw[iR+1:]
			canonical = false
		default:
			lines = append(lines, raw)
			raw = ""
			canonical = false
		}
	}
	return lines, canonical
}

// Parse parses raw request bytes leniently, recording violations rather
// than failing, so that both strict origin servers and sloppy middleboxes
// can be layered on top of one scan.
func Parse(raw []byte) *Parsed {
	p := &Parsed{}
	lines, canonical := splitLines(string(raw))
	if !canonical {
		p.Violations = append(p.Violations, ViolationBadDelimiter)
	}
	if len(lines) == 0 {
		p.Violations = append(p.Violations, ViolationBadRequestLine)
		return p
	}
	parts := strings.SplitN(lines[0], " ", 3)
	if len(parts) == 3 {
		p.Method, p.Path, p.Version = parts[0], parts[1], parts[2]
	} else {
		p.Violations = append(p.Violations, ViolationBadRequestLine)
		if len(parts) > 0 {
			p.Method = parts[0]
		}
	}
	if p.Method == "" || !ValidMethod(p.Method) {
		p.Violations = append(p.Violations, ViolationUnknownMethod)
	}
	if !strings.HasPrefix(p.Version, "HTTP/1.") {
		p.Violations = append(p.Violations, ViolationBadVersion)
	}
	for _, line := range lines[1:] {
		if line == "" {
			break // end of headers
		}
		colon := strings.IndexByte(line, ':')
		if colon < 0 {
			p.Violations = append(p.Violations, ViolationMalformedHeader)
			p.Headers = append(p.Headers, Header{Raw: line})
			continue
		}
		name := line[:colon]
		value := strings.TrimSpace(line[colon+1:])
		p.Headers = append(p.Headers, Header{Name: name, Value: value})
		if strings.EqualFold(name, "Host") && p.Host == "" {
			p.Host = value
			p.HostWord = name + ":"
		}
	}
	if p.Host == "" {
		p.Violations = append(p.Violations, ViolationMissingHost)
	}
	return p
}

// HasViolation reports whether v was recorded.
func (p *Parsed) HasViolation(v Violation) bool {
	for _, got := range p.Violations {
		if got == v {
			return true
		}
	}
	return false
}

// HostScanMode selects how a middlebox extracts the hostname it matches
// rules against. Real devices differ here, and the differences are exactly
// what several CenFuzz strategies exploit (§6.3).
type HostScanMode int

// Host scanning modes, ordered roughly from strictest to loosest.
const (
	// ScanExactHostWord only honors a header whose field word is exactly
	// "Host:" (case-sensitive) followed by a space.
	ScanExactHostWord HostScanMode = iota
	// ScanCaseInsensitiveHostWord honors any capitalization of "host:".
	ScanCaseInsensitiveHostWord
	// ScanSubstring searches for "Host:" case-insensitively anywhere in the
	// raw bytes and takes the rest of the line — tolerant of broken
	// delimiters and malformed request lines.
	ScanSubstring
)

// ScanOptions configures ExtractHost.
type ScanOptions struct {
	Mode HostScanMode
	// MethodAllowlist, when non-empty, restricts scanning to requests whose
	// method word is in the list (compared case-insensitively — real
	// devices fold case, which is why Capitalize strategies rarely evade,
	// §6.3); otherwise the scan reports no host. This reproduces devices
	// that "trigger only on certain HTTP methods".
	MethodAllowlist []string
	// RequireParseableRequestLine makes the scan fail when the request line
	// does not have three space-separated parts.
	RequireParseableRequestLine bool
	// RequireCanonicalDelimiters makes the scan fail on requests not using
	// \r\n line endings.
	RequireCanonicalDelimiters bool
}

// cutLine splits off the first line of raw, mirroring one iteration of
// splitLines: \r\n is canonical, bare \n and bare \r are tolerated but
// non-canonical, and an unterminated final line is non-canonical. raw must
// be non-empty. The returned slices alias raw; nothing is allocated.
func cutLine(raw []byte) (line, rest []byte, canonical bool) {
	iN := bytes.IndexByte(raw, '\n')
	iR := bytes.IndexByte(raw, '\r')
	switch {
	case iR >= 0 && iN == iR+1: // \r\n
		return raw[:iR], raw[iN+1:], true
	case iN >= 0 && (iR < 0 || iN < iR): // bare \n
		return raw[:iN], raw[iN+1:], false
	case iR >= 0: // bare \r
		return raw[:iR], raw[iR+1:], false
	default: // unterminated final line
		return raw, nil, false
	}
}

// allCanonical reports whether every line of raw ends with \r\n — the
// whole-input property splitLines reports, computed without splitting.
func allCanonical(raw []byte) bool {
	for len(raw) > 0 {
		_, rest, canon := cutLine(raw)
		if !canon {
			return false
		}
		raw = rest
	}
	return true
}

// RequestLineFields returns the three space-separated tokens of the first
// line of raw without allocating. The returned slices alias raw. Mirroring
// Parse, path and version are nil unless the line has at least two spaces
// (the version token absorbs any further spaces).
func RequestLineFields(raw []byte) (method, path, version []byte) {
	if len(raw) == 0 {
		return nil, nil, nil
	}
	line, _, _ := cutLine(raw)
	sp1 := bytes.IndexByte(line, ' ')
	if sp1 < 0 {
		return line, nil, nil
	}
	method = line[:sp1]
	rest := line[sp1+1:]
	sp2 := bytes.IndexByte(rest, ' ')
	if sp2 < 0 {
		return method, nil, nil
	}
	return method, rest[:sp2], rest[sp2+1:]
}

var (
	hostPrefixExact = []byte("Host: ")
	spaceSep        = []byte(" ")
)

// ExtractHost scans raw request bytes the way a censorship device would and
// returns the hostname the device keys its rules on. ok is false when the
// device's parser fails to find a hostname at all — which means the request
// evades a hostname-based rule.
//
// The scan itself never allocates; only a successful extraction copies the
// hostname out of raw (so callers may reuse the payload buffer).
func ExtractHost(raw []byte, opts ScanOptions) (host string, ok bool) {
	if opts.RequireCanonicalDelimiters && !allCanonical(raw) {
		return "", false
	}
	if len(raw) == 0 {
		return "", false
	}
	line0, after, _ := cutLine(raw)
	// strings.Split(line0, " ") != 3 parts ⇔ the line does not contain
	// exactly two spaces.
	if opts.RequireParseableRequestLine && bytes.Count(line0, spaceSep) != 2 {
		return "", false
	}
	if len(opts.MethodAllowlist) > 0 {
		method := line0
		if sp := bytes.IndexByte(line0, ' '); sp >= 0 {
			method = line0[:sp]
		}
		allowed := false
		for _, m := range opts.MethodAllowlist {
			if strings.EqualFold(string(method), m) {
				allowed = true
				break
			}
		}
		if !allowed {
			return "", false
		}
	}
	switch opts.Mode {
	case ScanExactHostWord:
		for len(after) > 0 {
			var line []byte
			line, after, _ = cutLine(after)
			if rest, found := bytes.CutPrefix(line, hostPrefixExact); found {
				return string(bytes.TrimSpace(rest)), true
			}
		}
	case ScanCaseInsensitiveHostWord:
		for len(after) > 0 {
			var line []byte
			line, after, _ = cutLine(after)
			if len(line) >= 5 && strings.EqualFold(string(line[:5]), "Host:") {
				return string(bytes.TrimSpace(line[5:])), true
			}
		}
	case ScanSubstring:
		// ASCII-case-insensitive search for "host:" anywhere in the raw
		// bytes, including the request line. Byte-wise lowering (only
		// 'A'-'Z') keeps indices aligned on invalid UTF-8, exactly like
		// lowering a copy of the input and searching that.
		for i := 0; i+5 <= len(raw); i++ {
			if raw[i]|0x20 == 'h' && raw[i+1]|0x20 == 'o' && raw[i+2]|0x20 == 's' &&
				raw[i+3]|0x20 == 't' && raw[i+4] == ':' {
				rest := raw[i+5:]
				if end := bytes.IndexAny(rest, "\r\n"); end >= 0 {
					rest = rest[:end]
				}
				return string(bytes.TrimSpace(rest)), true
			}
		}
	}
	return "", false
}

// ParseStatus extracts the status code from a raw HTTP/1.x response,
// returning 0 when the bytes are not a parseable status line.
func ParseStatus(raw []byte) int {
	if len(raw) < 12 || string(raw[:7]) != "HTTP/1." {
		return 0
	}
	code := 0
	for _, c := range raw[9:12] {
		if c < '0' || c > '9' {
			return 0
		}
		code = code*10 + int(c-'0')
	}
	return code
}
