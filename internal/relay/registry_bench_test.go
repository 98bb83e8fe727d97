package relay

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// benchRegistry builds a registry with n live edges.
func benchRegistry(b *testing.B, n int) *Registry {
	b.Helper()
	g := NewRegistry(nil)
	for i := 1; i <= n; i++ {
		if err := g.Register(NodeInfo{ID: fmt.Sprintf("edge-%d", i), URL: fmt.Sprintf("http://edge-%d.lod", i)}); err != nil {
			b.Fatal(err)
		}
	}
	return g
}

// BenchmarkRegistryPickFor measures the raw redirect decision — the
// consistent-hash lookup plus validation and load accounting — across
// fleet sizes. This is the ceiling on redirects per second (the
// benchmark's registry.pick_ns probes the same call); b.ReportAllocs
// keeps the alloc/op regression visible next to the ns/op one.
func BenchmarkRegistryPickFor(b *testing.B) {
	for _, edges := range []int{3, 16, 64} {
		b.Run(fmt.Sprintf("%dedges", edges), func(b *testing.B) {
			g := benchRegistry(b, edges)
			keys := make([]string, 256)
			for i := range keys {
				keys[i] = fmt.Sprintf("/vod/lec-%d", i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := g.PickFor(keys[i%len(keys)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRegistryPickForExcluded is the failover-path variant: a
// populated exclude list matched against the ring's preferred node.
func BenchmarkRegistryPickForExcluded(b *testing.B) {
	g := benchRegistry(b, 16)
	exclude := []string{"edge-2.lod", "edge-5"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.PickFor("/vod/lec-1", exclude...); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRegistryRedirect measures the full HTTP redirect surface —
// mux, exclude-header parse, keyed pick, Location header — the
// requests-per-second a single registry process can answer.
func BenchmarkRegistryRedirect(b *testing.B) {
	for _, edges := range []int{3, 16} {
		b.Run(fmt.Sprintf("%dedges", edges), func(b *testing.B) {
			g := benchRegistry(b, edges)
			h := g.Handler()
			req := httptest.NewRequest(http.MethodGet, "/v1/vod/lec-42?start=1500ms", nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := httptest.NewRecorder()
				h.ServeHTTP(w, req)
				if w.Code != http.StatusTemporaryRedirect {
					b.Fatalf("status %d", w.Code)
				}
			}
		})
	}
}
