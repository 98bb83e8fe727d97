package proto

import (
	"net/url"
	"strings"
	"testing"
	"time"
	"unicode/utf8"
)

// FuzzStreamNameRoundTrip drives arbitrary asset names through the path
// builder and back through the request-side decode, asserting the
// percent-encoding contract: any name — spaces, slashes, ?, #, comma
// soup — survives Versioned(StreamPath) → (URL parse) → SplitStreamPath
// and StreamName intact.
func FuzzStreamNameRoundTrip(f *testing.F) {
	f.Add("lec-1")
	f.Add("week 1/intro")
	f.Add("a?b#c")
	f.Add("lecture%20hall")
	f.Add("日本語講義")
	f.Add("..")
	f.Fuzz(func(t *testing.T, name string) {
		if name == "" || !utf8.ValidString(name) {
			t.Skip("empty and non-UTF-8 names are not addressable assets")
		}
		for _, k := range []StreamKind{StreamVOD, StreamLive, StreamGroup, StreamFetch} {
			path := Versioned(StreamPath(k, name))
			// The encoded path must parse as a URL path and decode back
			// to itself — that is what every handler sees after
			// net/http's URL parsing.
			decoded, err := url.PathUnescape(path)
			if err != nil {
				t.Fatalf("Versioned(StreamPath(%v, %q)) = %q does not unescape: %v", k, name, path, err)
			}
			gotKind, gotName, ok := SplitStreamPath(decoded)
			if !ok {
				t.Fatalf("SplitStreamPath(%q) not recognized (name %q)", decoded, name)
			}
			if gotKind != k || gotName != name {
				t.Fatalf("round trip = (%v, %q), want (%v, %q)", gotKind, gotName, k, name)
			}
			if got := StreamName(decoded, k); got != name {
				t.Fatalf("StreamName(%q, %v) = %q, want %q", decoded, k, got, name)
			}
		}
	})
}

// FuzzParseStart asserts ParseStart never panics, never returns a
// negative offset without an error, and always wraps rejections in a
// 400 *Error. Accepted values must survive the canonical FormatStart
// re-encode to millisecond precision.
func FuzzParseStart(f *testing.F) {
	f.Add("30s")
	f.Add("1500ms")
	f.Add("-5s")
	f.Add("")
	f.Add("9223372036854775807ns")
	f.Add("1h60m")
	f.Fuzz(func(t *testing.T, raw string) {
		at, err := ParseStart(raw)
		if err != nil {
			e, ok := err.(*Error)
			if !ok {
				t.Fatalf("ParseStart(%q) error %T, want *Error", raw, err)
			}
			if e.Status != 400 {
				t.Fatalf("ParseStart(%q) status %d, want 400", raw, e.Status)
			}
			return
		}
		if at < 0 {
			t.Fatalf("ParseStart(%q) = %v accepted a negative offset", raw, at)
		}
		back, err := ParseStart(FormatStart(at))
		if err != nil {
			t.Fatalf("canonical re-encode of %q rejected: %v", raw, err)
		}
		if back != at.Truncate(time.Millisecond) {
			t.Fatalf("FormatStart round trip of %q = %v, want %v", raw, back, at.Truncate(time.Millisecond))
		}
	})
}

// FuzzParseRange asserts ParseRange never panics, accepts only the one
// open-ended form FormatRange writes — never a negative, suffix, bounded
// or multi-range value — and that every accepted offset round-trips
// through FormatRange.
func FuzzParseRange(f *testing.F) {
	f.Add("bytes=0-")
	f.Add("bytes=1234-")
	f.Add("bytes=007-")
	f.Add("bytes=-5")
	f.Add("bytes=5-9")
	f.Add("bytes=0-,5-")
	f.Add("bytes=+5-")
	f.Add("bytes=9223372036854775808-")
	f.Add("items=5-")
	f.Add("")
	f.Fuzz(func(t *testing.T, raw string) {
		n, ok := ParseRange(raw)
		if !ok {
			if n != 0 {
				t.Fatalf("ParseRange(%q) rejected but returned %d", raw, n)
			}
			return
		}
		if n < 0 {
			t.Fatalf("ParseRange(%q) = %d accepted a negative offset", raw, n)
		}
		spec := strings.TrimPrefix(raw, "bytes=")
		if strings.HasPrefix(spec, "-") || strings.Contains(spec, ",") || !strings.HasSuffix(spec, "-") ||
			strings.Count(spec, "-") != 1 {
			t.Fatalf("ParseRange(%q) = %d accepted a suffix, bounded or multi-range form", raw, n)
		}
		if back, ok := ParseRange(FormatRange(n)); !ok || back != n {
			t.Fatalf("FormatRange round trip of %q = %d, %v; want %d", raw, back, ok, n)
		}
	})
}

// FuzzParseBandwidth asserts ParseBandwidth accepts exactly the
// positive decimal integers and wraps every rejection in a 400 *Error.
func FuzzParseBandwidth(f *testing.F) {
	f.Add("56000")
	f.Add("0")
	f.Add("-1")
	f.Add("9223372036854775808")
	f.Add("1e6")
	f.Add("")
	f.Fuzz(func(t *testing.T, raw string) {
		v, err := ParseBandwidth(raw)
		if err != nil {
			e, ok := err.(*Error)
			if !ok {
				t.Fatalf("ParseBandwidth(%q) error %T, want *Error", raw, err)
			}
			if e.Status != 400 {
				t.Fatalf("ParseBandwidth(%q) status %d, want 400", raw, e.Status)
			}
			return
		}
		if v <= 0 {
			t.Fatalf("ParseBandwidth(%q) = %d accepted a non-positive rate", raw, v)
		}
	})
}

// FuzzSplitExclude asserts the exclude-list codec's invariants: no
// empty or padded entries ever come out, and a JoinExclude of the split
// result re-splits to the same list (idempotent normalization).
func FuzzSplitExclude(f *testing.F) {
	f.Add("edge-1,edge-2")
	f.Add(" edge-1 , ,edge-2,")
	f.Add(",,,")
	f.Add("")
	f.Add("a\tb , c")
	f.Fuzz(func(t *testing.T, raw string) {
		refs := SplitExclude(raw)
		for _, ref := range refs {
			if ref == "" {
				t.Fatalf("SplitExclude(%q) produced an empty entry: %q", raw, refs)
			}
			if strings.TrimSpace(ref) != ref {
				t.Fatalf("SplitExclude(%q) produced padded entry %q", raw, ref)
			}
			if strings.Contains(ref, ",") {
				t.Fatalf("SplitExclude(%q) produced entry with separator: %q", raw, ref)
			}
		}
		again := SplitExclude(JoinExclude(refs))
		if len(again) != len(refs) {
			t.Fatalf("re-split of %q: %d entries, want %d", raw, len(again), len(refs))
		}
		for i := range refs {
			if again[i] != refs[i] {
				t.Fatalf("re-split of %q: entry %d = %q, want %q", raw, i, again[i], refs[i])
			}
		}
	})
}
