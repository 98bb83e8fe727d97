package streaming

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/asf"
)

// ErrOverloaded is returned when a reservation would exceed capacity.
var ErrOverloaded = errors.New("streaming: server bandwidth capacity exceeded")

// Admission implements XOCPN-style channel set-up at the server: before a
// session starts, the bandwidth its streams require (declared in the
// container header, the QoS the paper's channels carry) is reserved
// against the server's uplink capacity. Sessions that do not fit are
// rejected rather than degrading everyone — the multimedia call-admission
// policy. The zero value admits everything (no capacity configured).
type Admission struct {
	mu sync.Mutex
	// CapacityBps is the total uplink budget; zero means unlimited.
	CapacityBps int64
	reserved    int64
	sessions    map[string]int64
	nextID      int
	rejected    int64
}

// NewAdmission creates an admission controller with the given capacity.
func NewAdmission(capacityBps int64) *Admission {
	return &Admission{CapacityBps: capacityBps}
}

// Reserve admits a session needing bps of bandwidth, returning a
// reservation token to release later. A zero-capacity controller admits
// everything.
func (a *Admission) Reserve(bps int64) (string, error) {
	if bps < 0 {
		return "", fmt.Errorf("streaming: negative bandwidth %d", bps)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.CapacityBps > 0 && a.reserved+bps > a.CapacityBps {
		a.rejected++
		return "", fmt.Errorf("%w: %d + %d > %d", ErrOverloaded, a.reserved, bps, a.CapacityBps)
	}
	if a.sessions == nil {
		a.sessions = make(map[string]int64)
	}
	a.nextID++
	token := fmt.Sprintf("r%d", a.nextID)
	a.sessions[token] = bps
	a.reserved += bps
	return token, nil
}

// Release frees a reservation. Unknown tokens are ignored (idempotent).
func (a *Admission) Release(token string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if bps, ok := a.sessions[token]; ok {
		a.reserved -= bps
		delete(a.sessions, token)
	}
}

// Reserved returns the currently reserved bandwidth.
func (a *Admission) Reserved() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.reserved
}

// Rejected returns how many sessions were refused.
func (a *Admission) Rejected() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.rejected
}

// Sessions returns the number of active reservations.
func (a *Admission) Sessions() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.sessions)
}

// headerRate sums a header's declared per-stream bit rates — the session's
// QoS requirement used for admission, and the rate a multi-rate group
// ranks its variants by.
func headerRate(h asf.Header) int64 {
	var total int64
	for _, st := range h.Streams {
		total += st.BitsPerSecond
	}
	return total
}
