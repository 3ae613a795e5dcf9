// Package endpoint implements the simulated servers measurements are sent
// to: HTTP virtual hosts and TLS responders with configurable strictness,
// plus banner services on auxiliary ports. Endpoint behaviour matters for
// CenFuzz's circumvention verdicts (§6.3): a fuzzed request only counts as
// circumvention when it both evades the censor and elicits the intended
// resource from the server, and real servers answer odd requests with
// statuses like 400, 403, 301, and 505.
package endpoint

import (
	"fmt"
	"strconv"
	"strings"

	"cendev/internal/httpgram"
	"cendev/internal/tlsgram"
)

// Server is one endpoint: a web server hosting one or more domains.
type Server struct {
	// Domains are the virtual hosts served (exact hostnames).
	Domains []string
	// WildcardSubdomains serves any subdomain of a configured domain's
	// registrable domain (how wiki.dailymotion.com fetched legitimate
	// content in KZ, §6.3).
	WildcardSubdomains bool
	// TolerantPadding strips leading/trailing non-hostname characters from
	// the Host header before matching (how padded hostnames fetched
	// legitimate content from some servers, §6.3).
	TolerantPadding bool
	// Services maps extra open ports to banners (most infrastructure
	// endpoints expose a few).
	Services map[int]string
}

// NewServer returns a server hosting the given domains.
func NewServer(domains ...string) *Server {
	return &Server{Domains: domains}
}

// HTTPResult is the server's reply to one HTTP request.
type HTTPResult struct {
	Status int
	Body   string
	// ServedDomain is the vhost that handled the request ("" on errors).
	ServedDomain string
}

// reasonPhrases maps the statuses the simulated servers send to their
// status lines' reason phrases.
var reasonPhrases = map[int]string{
	200: "OK", 301: "Moved Permanently", 400: "Bad Request",
	403: "Forbidden", 404: "Not Found", 405: "Method Not Allowed",
	505: "HTTP Version Not Supported",
}

// Render produces the raw HTTP response bytes.
func (r HTTPResult) Render() []byte {
	const tail = "\r\nContent-Type: text/html\r\nConnection: close\r\n\r\n"
	reason := reasonPhrases[r.Status]
	if reason == "" {
		reason = "Unknown"
	}
	b := make([]byte, 0, len("HTTP/1.1 200 ")+len(reason)+len(tail)+len(r.Body))
	b = append(b, "HTTP/1.1 "...)
	b = strconv.AppendInt(b, int64(r.Status), 10)
	b = append(b, ' ')
	b = append(b, reason...)
	b = append(b, tail...)
	return append(b, r.Body...)
}

// normalizeHost strips padding characters a tolerant server ignores.
func normalizeHost(host string) string {
	return strings.Trim(host, "*#@!$%^&() ")
}

// matchDomain resolves the vhost for a Host header value.
func (s *Server) matchDomain(host string) (string, bool) {
	h := strings.ToLower(host)
	if s.TolerantPadding {
		h = normalizeHost(h)
	}
	for _, d := range s.Domains {
		if h == strings.ToLower(d) {
			return d, true
		}
	}
	if s.WildcardSubdomains {
		for _, d := range s.Domains {
			reg := registrable(strings.ToLower(d))
			if h == reg || strings.HasSuffix(h, "."+reg) {
				return d, true
			}
		}
	}
	return "", false
}

func registrable(host string) string {
	labels := strings.Split(host, ".")
	if len(labels) <= 2 {
		return host
	}
	return strings.Join(labels[len(labels)-2:], ".")
}

// HandleHTTP parses raw request bytes and produces the server's response,
// mirroring how conforming origin servers reject ungrammatical requests.
func (s *Server) HandleHTTP(raw []byte) HTTPResult {
	p := httpgram.Parse(raw)
	switch {
	case p.HasViolation(httpgram.ViolationBadRequestLine),
		p.HasViolation(httpgram.ViolationBadDelimiter),
		p.HasViolation(httpgram.ViolationMalformedHeader),
		p.HasViolation(httpgram.ViolationMissingHost):
		return HTTPResult{Status: 400, Body: errorPage400}
	case p.HasViolation(httpgram.ViolationBadVersion):
		return HTTPResult{Status: 505, Body: errorPage505}
	case p.HasViolation(httpgram.ViolationUnknownMethod):
		return HTTPResult{Status: 400, Body: errorPage400}
	}
	domain, ok := s.matchDomain(p.Host)
	if !ok {
		// A request for the bare registrable domain of a hosted www. vhost
		// gets the canonical 301 redirect (one of the §6.3 status codes);
		// anything else is a vhost mismatch.
		for _, d := range s.Domains {
			if strings.EqualFold("www."+p.Host, d) {
				return HTTPResult{
					Status: 301,
					Body:   fmt.Sprintf("<html><body>moved to %s</body></html>", d),
				}
			}
		}
		return HTTPResult{Status: 403, Body: errorPage403}
	}
	switch p.Method {
	case "GET", "HEAD", "POST":
		return HTTPResult{
			Status:       200,
			Body:         ContentFor(domain, p.Path),
			ServedDomain: domain,
		}
	default: // PUT, PATCH, DELETE, OPTIONS, TRACE on static content
		return HTTPResult{Status: 405, Body: errorPage405}
	}
}

// ContentFor is the canonical page body served for a domain and path; the
// fuzzer compares against it to decide circumvention.
func ContentFor(domain, path string) string {
	return fmt.Sprintf("<html><head><title>%s</title></head><body>content of %s%s</body></html>",
		domain, domain, path)
}

// Error page bodies, one per status HandleHTTP rejects a request with.
const (
	errorPage400 = "<html><body><h1>400</h1></body></html>"
	errorPage403 = "<html><body><h1>403</h1></body></html>"
	errorPage405 = "<html><body><h1>405</h1></body></html>"
	errorPage505 = "<html><body><h1>505</h1></body></html>"
)

// TLSResult is the server's reply to one Client Hello.
type TLSResult struct {
	// OK is true when the handshake proceeded (Server Hello sent).
	OK bool
	// Alert carries the TLS alert description when OK is false.
	Alert string
	// ServedDomain is the certificate's domain when OK.
	ServedDomain string
	// Response is the raw reply record.
	Response []byte
}

// TLS alert markers used in simulated handshakes.
const (
	AlertUnrecognizedName  = "unrecognized_name"
	AlertHandshakeFailure  = "handshake_failure"
	AlertProtocolVersion   = "protocol_version"
	AlertDecodeError       = "decode_error"
	serverHelloMagic       = "\x16\x03\x03SERVERHELLO:"
	alertMagic             = "\x15\x03\x03ALERT:"
	minSupportedTLSVersion = tlsgram.VersionTLS10
)

// HandleTLS parses a raw Client Hello and produces the handshake outcome.
func (s *Server) HandleTLS(raw []byte) TLSResult {
	ch, err := tlsgram.Parse(raw)
	if err != nil {
		return alertResult(AlertDecodeError)
	}
	if ch.EffectiveMaxVersion() < minSupportedTLSVersion {
		return alertResult(AlertProtocolVersion)
	}
	if len(ch.CipherSuites) == 0 {
		return alertResult(AlertHandshakeFailure)
	}
	supported := false
	for _, cs := range ch.CipherSuites {
		if _, ok := tlsgram.CipherSuiteNames[cs]; ok {
			supported = true
			break
		}
	}
	if !supported {
		return alertResult(AlertHandshakeFailure)
	}
	sni, ok := ch.SNI()
	if !ok {
		// No SNI: serve the default certificate (first domain).
		if len(s.Domains) == 0 {
			return alertResult(AlertUnrecognizedName)
		}
		return helloResult(s.Domains[0])
	}
	host := sni
	if s.TolerantPadding {
		host = normalizeHost(host)
	}
	domain, matched := s.matchDomain(host)
	if !matched {
		return alertResult(AlertUnrecognizedName)
	}
	return helloResult(domain)
}

func helloResult(domain string) TLSResult {
	return TLSResult{
		OK:           true,
		ServedDomain: domain,
		Response:     []byte(serverHelloMagic + domain),
	}
}

func alertResult(alert string) TLSResult {
	return TLSResult{Alert: alert, Response: []byte(alertMagic + alert)}
}

// IsServerHello reports whether a raw reply is a successful handshake
// response, and for which domain.
func IsServerHello(raw []byte) (domain string, ok bool) {
	s := string(raw)
	if rest, found := strings.CutPrefix(s, serverHelloMagic); found {
		return rest, true
	}
	return "", false
}

// IsAlert reports whether a raw reply is a TLS alert, and which one.
func IsAlert(raw []byte) (alert string, ok bool) {
	s := string(raw)
	if rest, found := strings.CutPrefix(s, alertMagic); found {
		return rest, true
	}
	return "", false
}
