// Package a exercises the vclocktime analyzer under
// internal/relay/membership, whose instants all arrive as arguments.
package a

import "time"

func expired(now, lastSeen time.Time, ttl time.Duration) bool {
	_ = time.Now()                 // want `time\.Now in virtual-clock package membership`
	return now.Sub(lastSeen) > ttl // arithmetic on a given instant is allowed
}
