package relay

import (
	"fmt"
	"net/http"
	"reflect"
	"sync"
	"testing"

	"repro/internal/player"
)

// Readers hand their windows, and players their log chunks, to whoever
// reads next (asf's and player's free lists). Eight players replaying
// the origin's lecture while the edge pulls it again and again pass both
// between goroutines: under -race any write to a window or chunk still
// in use shows, and every play and every pull must still be exactly the
// origin's.
func TestPlaysAndPullsShareBuffers(t *testing.T) {
	const (
		players = 8
		plays   = 3
		pulls   = 12
	)
	origin, ts, _ := newOriginWithAsset(t, "lec")
	want, _ := origin.Asset("lec")
	url := ts.URL + "/v1/vod/lec"
	play := func() (*player.Metrics, error) {
		resp, err := http.Get(url)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		return player.New(player.Options{}).Play(resp.Body)
	}
	first, err := play()
	if err != nil {
		t.Fatal(err)
	}

	edge := NewEdge(ts.URL, nil)
	var wg sync.WaitGroup
	errc := make(chan error, players+1)
	for i := 0; i < players; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < plays; j++ {
				m, err := play()
				if err != nil {
					errc <- err
					return
				}
				if m.BrokenFrames != 0 || m.BytesRead != want.Bytes() || !sameKinds(m.Events, first.Events) {
					errc <- fmt.Errorf("play differs: %d broken, %d of %d bytes, %d of %d events",
						m.BrokenFrames, m.BytesRead, want.Bytes(), len(m.Events), len(first.Events))
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < pulls; j++ {
			if err := edge.fetchAsset("lec"); err != nil {
				errc <- err
				return
			}
			got, ok := edge.Server.Asset("lec")
			if !ok || !reflect.DeepEqual(got.Packets, want.Packets) {
				errc <- fmt.Errorf("pull %d: the mirror differs from the origin", j)
				return
			}
			edge.Server.RemoveAsset("lec")
		}
	}()
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// sameKinds reports whether two render logs present the same items in
// the same order; their instants differ from play to play.
func sameKinds(a, b []player.Event) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Kind != b[i].Kind || a[i].PTS != b[i].PTS || a[i].Param != b[i].Param {
			return false
		}
	}
	return true
}
