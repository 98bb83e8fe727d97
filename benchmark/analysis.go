package main

import (
	"sort"
)

// layerStats is what the spans of one traced window say about each
// layer. Durations are nanoseconds unless the field says otherwise.
type layerStats struct {
	redirectNs, heartbeatNs []float64
	hitTTFBNs, missTTFBNs   []float64
	pullNs                  []float64
	pullBytes               int64
	pulls, duplicatePulls   int
	originFetchNs           []float64
	resolveNs, edgeOpenNs   []float64
	startupNs               []float64 // traced sessions: open → first stream byte
	accountedNs             []float64 // per session: Σ self times of the startup path's four spans
	startupSelfNs           []float64 // per session: startup outside the two legs — SDK work
	writeNs, writePackets   float64   // edge handler time after the first write, and the packets it wrote
	clientNs, clientPackets float64   // client-side work outside body reads, and the packets decoded
}

// sessionSpans are the spans of one session's startup path.
type sessionSpans struct {
	session, resolve, redirect, edgeOpen, edge *span
}

// analyze derives per-layer figures from a window's spans.
func analyze(spans []span) layerStats {
	var st layerStats
	sessions := make(map[uint64]*sessionSpans)
	of := func(id uint64) *sessionSpans {
		s := sessions[id]
		if s == nil {
			s = &sessionSpans{}
			sessions[id] = s
		}
		return s
	}
	pullsByKey := make(map[string][]*span)
	for i := range spans {
		s := &spans[i]
		d := float64(s.End - s.Start)
		switch s.Name {
		case spanRedirect:
			st.redirectNs = append(st.redirectNs, d)
			of(s.Session).redirect = s
		case spanHeartbeat:
			st.heartbeatNs = append(st.heartbeatNs, d)
		case spanEdgeVOD, spanEdgeGroup, spanEdgeLive:
			if s.FirstWrite > 0 {
				ttfb := float64(s.FirstWrite - s.Start)
				if s.Hit {
					st.hitTTFBNs = append(st.hitTTFBNs, ttfb)
				} else {
					st.missTTFBNs = append(st.missTTFBNs, ttfb)
				}
			}
			of(s.Session).edge = s
		case spanPull:
			if s.FirstWrite > 0 { // a whole-container pull, timed to body EOF
				st.pulls++
				st.pullNs = append(st.pullNs, d)
				st.pullBytes += s.Bytes
				key := s.Role + "/" + s.Key
				pullsByKey[key] = append(pullsByKey[key], s)
			}
		case spanOriginFetch:
			st.originFetchNs = append(st.originFetchNs, d)
		case spanResolve:
			st.resolveNs = append(st.resolveNs, d)
			of(s.Session).resolve = s
		case spanEdgeOpen:
			st.edgeOpenNs = append(st.edgeOpenNs, d)
			of(s.Session).edgeOpen = s
		case spanSession:
			of(s.Session).session = s
		}
	}
	// Two pulls of one asset by one edge that overlap in time are work
	// the edge's miss coalescing should have prevented.
	for _, ps := range pullsByKey {
		sort.Slice(ps, func(i, j int) bool { return ps[i].Start < ps[j].Start })
		for i := 1; i < len(ps); i++ {
			if ps[i].Start < ps[i-1].End {
				st.duplicatePulls++
			}
		}
	}
	for id, s := range sessions {
		if id == 0 || s.session == nil || s.session.FirstWrite == 0 {
			continue
		}
		st.startupNs = append(st.startupNs, float64(s.session.FirstWrite-s.session.Start))
		if s.resolve != nil && s.edgeOpen != nil && s.redirect != nil && s.edge != nil && s.edge.FirstWrite > 0 {
			// Self time of a leg is the leg minus the handler span inside it.
			redirect := float64(s.redirect.End - s.redirect.Start)
			ttfb := float64(s.edge.FirstWrite - s.edge.Start)
			resolveSelf := float64(s.resolve.End-s.resolve.Start) - redirect
			openSelf := float64(s.edgeOpen.End-s.edgeOpen.Start) - ttfb
			st.accountedNs = append(st.accountedNs, resolveSelf+redirect+openSelf+ttfb)
			st.startupSelfNs = append(st.startupSelfNs, float64(s.session.FirstWrite-s.session.Start)-
				float64(s.resolve.End-s.resolve.Start)-float64(s.edgeOpen.End-s.edgeOpen.Start))
		}
		if s.edge != nil && s.edge.Name != spanEdgeLive && s.edge.FirstWrite > 0 && s.session.Packets > 0 {
			st.writeNs += float64(s.edge.End - s.edge.FirstWrite)
			st.writePackets += float64(s.session.Packets)
		}
		if s.resolve != nil && s.edgeOpen != nil && s.session.Packets > 0 {
			work := float64(s.session.End-s.session.Start) - float64(s.session.Blocked) -
				float64(s.resolve.End-s.resolve.Start) - float64(s.edgeOpen.End-s.edgeOpen.Start)
			if work > 0 {
				st.clientNs += work
			}
			st.clientPackets += float64(s.session.Packets)
		}
	}
	for _, v := range [][]float64{st.redirectNs, st.heartbeatNs, st.hitTTFBNs, st.missTTFBNs, st.pullNs,
		st.originFetchNs, st.resolveNs, st.edgeOpenNs, st.startupNs, st.accountedNs, st.startupSelfNs} {
		sort.Float64s(v)
	}
	return st
}
