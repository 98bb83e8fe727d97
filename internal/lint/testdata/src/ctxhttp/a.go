// Package a exercises the ctxhttp analyzer under an internal import
// path, where the context-free http helpers, the timeout-free
// http.DefaultClient and context roots are all findings.
package a

import (
	"context"
	"io"
	"net/http"
	"time"
)

func fetch(ctx context.Context, client *http.Client, url string) error {
	resp, err := http.Get(url) // want `http\.Get is not cancellable`
	if err != nil {
		return err
	}
	defer resp.Body.Close()

	if _, err := http.Post(url, "text/plain", nil); err != nil { // want `http\.Post is not cancellable`
		return err
	}
	if _, err := http.Head(url); err != nil { // want `http\.Head is not cancellable`
		return err
	}
	if _, err := http.NewRequest(http.MethodGet, url, nil); err != nil { // want `http\.NewRequest attaches context\.Background`
		return err
	}

	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	if _, err = http.DefaultClient.Do(req); err != nil { // want `http\.DefaultClient has no timeouts`
		return err
	}
	// A client with timeouts, handed in, is the allowed form.
	_, err = client.Do(req)
	return err
}

func roots() context.Context {
	ctx := context.Background() // want `context\.Background in an internal package severs the caller's cancellation chain`
	_ = context.TODO()          // want `context\.TODO in an internal package severs the caller's cancellation chain`

	//lodlint:allow bare-ctx the broadcast owns its lifecycle via Stop
	detached := context.Background()
	_ = detached
	return ctx
}

func reader(r io.Reader) io.Reader { return r }

func clients() []*http.Client {
	return []*http.Client{
		{},                     // an elided type goes unseen: the rule reads syntax only
		&http.Client{},         // want `http\.Client literal sets neither Timeout nor Transport`
		&http.Client{Jar: nil}, // want `http\.Client literal sets neither Timeout nor Transport`
		&http.Client{Timeout: 5 * time.Second},
		&http.Client{Transport: &http.Transport{ResponseHeaderTimeout: 10 * time.Second}},
	}
}
