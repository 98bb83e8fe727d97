package streaming

import (
	"fmt"
	"net/http"
	"sort"
	"sync"

	"repro/internal/proto"
)

// RateGroup bundles encodings of the same presentation at several
// bandwidth profiles — the server side of §2.5's "different bandwidth
// profile selection window". A client requests the group with its link
// bandwidth and receives the richest variant that fits. A group holds
// its variants by name: it ranks, and hands out, the asset registered
// under each name now, so a republished variant counts at its new rate
// and the copy it replaced is no longer held. Create one with
// Server.CreateRateGroup.
type RateGroup struct {
	Name string

	srv      *Server
	mu       sync.RWMutex
	variants []string // in the order they were added
}

// AddVariant adds an encoding to the group, by its name.
func (g *RateGroup) AddVariant(a *Asset) {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.variants = append(g.variants, a.Name)
}

// each calls f with the asset registered under each variant name, in
// the order they were added; a name with none is passed over.
func (g *RateGroup) each(f func(*Asset)) {
	g.mu.RLock()
	defer g.mu.RUnlock()
	if len(g.variants) == 0 {
		return
	}
	g.srv.mu.RLock()
	defer g.srv.mu.RUnlock()
	for _, name := range g.variants {
		if a, ok := g.srv.assets[name]; ok {
			f(a)
		}
	}
}

// Select returns the richest variant whose rate fits within the given
// bandwidth, falling back to the smallest variant; false when none is
// registered. Of variants at the same rate, the later added is the
// richer.
func (g *RateGroup) Select(bitsPerSecond int64) (*Asset, bool) {
	var best, least *Asset
	g.each(func(a *Asset) {
		rate := headerRate(a.Header)
		if least == nil || rate < headerRate(least.Header) {
			least = a
		}
		if rate <= bitsPerSecond && (best == nil || rate >= headerRate(best.Header)) {
			best = a
		}
	})
	if best == nil {
		best = least
	}
	return best, best != nil
}

// Variants returns the group's registered assets in ascending rate order.
func (g *RateGroup) Variants() []*Asset {
	var out []*Asset
	g.each(func(a *Asset) { out = append(out, a) })
	sort.SliceStable(out, func(i, j int) bool { return headerRate(out[i].Header) < headerRate(out[j].Header) })
	return out
}

// CreateRateGroup registers an empty multi-rate group on the server.
func (s *Server) CreateRateGroup(name string) (*RateGroup, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.groups == nil {
		s.groups = make(map[string]*RateGroup)
	}
	if _, ok := s.groups[name]; ok {
		return nil, fmt.Errorf("%w: group %q", ErrDuplicate, name)
	}
	g := &RateGroup{Name: name, srv: s}
	s.groups[name] = g
	return g, nil
}

// RateGroup returns a registered group.
func (s *Server) RateGroup(name string) (*RateGroup, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	g, ok := s.groups[name]
	return g, ok
}

// RemoveRateGroup unregisters a multi-rate group, reporting whether it
// was present. Its variant assets stay registered (they may be served
// directly or belong to other groups); sessions streaming a variant
// finish normally. The unpublish/catalog-invalidation hook.
func (s *Server) RemoveRateGroup(name string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.groups[name]; !ok {
		return false
	}
	delete(s.groups, name)
	return true
}

// handleGroup serves /v1/group/{name}?bw=<bits per second>: it selects
// the best-fitting variant and streams it exactly like a VOD session.
func (s *Server) handleGroup(w http.ResponseWriter, r *http.Request) {
	if s.refuseDraining(w) {
		return
	}
	name := proto.StreamName(r.URL.Path, proto.StreamGroup)
	g, ok := s.RateGroup(name)
	if !ok {
		proto.WriteError(w, http.StatusNotFound, "streaming: unknown group "+name)
		return
	}
	bw := int64(1 << 62)
	if raw := r.URL.Query().Get(proto.ParamBandwidth); raw != "" {
		v, err := proto.ParseBandwidth(raw)
		if err != nil {
			proto.WriteErr(w, err)
			return
		}
		bw = v
	}
	asset, ok := g.Select(bw)
	if !ok {
		proto.WriteError(w, http.StatusNotFound, "empty group")
		return
	}
	s.streamAsset(w, r, asset.Name)
}
