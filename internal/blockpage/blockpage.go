// Package blockpage is the curated blockpage fingerprint database CenTrace
// and CenFuzz consult before labeling an HTTP response as censorship. The
// paper's tools restrict the blocking verdict to responses matching a known
// blockpage recorded by Censored Planet (§4.1: "we consider the response as
// blocking only when we obtain a response that matches a known blockpage");
// this registry plays that role for the simulated vendors.
package blockpage

import (
	"bytes"
	"net/netip"
)

// Fingerprint identifies one known blockpage.
type Fingerprint struct {
	ID     string
	Vendor string
	// Pattern is a substring that must appear in the response body.
	Pattern string
}

// DB is the default fingerprint set, mirroring the kinds of signatures the
// Censored Planet assets list carries: commercial filter pages, government
// pages, and ISP pages.
var DB = []Fingerprint{
	{ID: "fortinet-webfilter", Vendor: "Fortinet", Pattern: "Powered by FortiGuard"},
	{ID: "fortinet-violation", Vendor: "Fortinet", Pattern: "Web Page Blocked!"},
	{ID: "ddosguard-403", Vendor: "DDoSGuard", Pattern: "ddos-guard"},
	{ID: "netsweeper-deny", Vendor: "Netsweeper", Pattern: "netsweeper"},
	{ID: "kaspersky-swg", Vendor: "Kaspersky", Pattern: "Kaspersky Web Traffic Security"},
	{ID: "generic-gov-ru", Vendor: "", Pattern: "Доступ к запрашиваемому ресурсу ограничен"},
	{ID: "generic-isp-block", Vendor: "", Pattern: "access to this resource has been blocked"},
}

// patterns holds DB's patterns as bytes, index for index, converted once
// so that Match converts neither the body nor a pattern per call. DB is
// not modified after init.
var patterns = func() [][]byte {
	ps := make([][]byte, len(DB))
	for i, fp := range DB {
		ps[i] = []byte(fp.Pattern)
	}
	return ps
}()

// Match scans a response body for a known blockpage and returns the first
// matching fingerprint.
func Match(body []byte) (Fingerprint, bool) {
	for i, pattern := range patterns {
		if bytes.Contains(body, pattern) {
			return DB[i], true
		}
	}
	return Fingerprint{}, false
}

// VendorFor returns the vendor label for a response body, "" when the body
// matches no known blockpage or the blockpage is not vendor-attributable.
func VendorFor(body []byte) string {
	fp, ok := Match(body)
	if !ok {
		return ""
	}
	return fp.Vendor
}

// BogusIPs is the curated list of DNS-injection answer addresses — the
// DNS-extension analog of the blockpage fingerprint list. An A answer on
// this list marks the response as injected censorship rather than a
// legitimate resolution.
var BogusIPs = map[netip.Addr]bool{
	netip.MustParseAddr("10.10.34.34"):  true,
	netip.MustParseAddr("198.51.100.6"): true,
	netip.MustParseAddr("127.0.0.1"):    true,
}

// MatchDNSAnswers reports whether any answer address is a known injection
// address.
func MatchDNSAnswers(answers []netip.Addr) bool {
	for _, a := range answers {
		if BogusIPs[a] {
			return true
		}
	}
	return false
}
