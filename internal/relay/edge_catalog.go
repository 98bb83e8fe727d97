package relay

import (
	"net/http"
	"slices"

	"repro/internal/proto"
)

// This file is the edge's half of the catalog hot-swap: the registry
// versions its published-content catalog (internal/catalog via
// Registry), edges learn of movement from the CatalogVersionHeader on
// their heartbeat answers (Heartbeats.OnCatalog), fetch the new catalog,
// and invalidate exactly the mirrored copies whose entries changed.

// SyncCatalog reconciles the edge's mirrors with a fetched catalog and
// returns the names of the mirrored copies it invalidated. The diff is
// against the edge's *previously synced* catalog, not against the
// edge's resident content: a mirror is dropped only when its catalog
// entry vanished (unpublish) or changed Rev (republish — the origin's
// bytes are new, so the cached copy is stale). Content the catalog
// never mentioned — legacy direct registrations, live channels — is
// deliberately untouched, and the very first sync only records the
// baseline. Catalogs at or below the last synced version are ignored
// (a catalog fetched from a lagging registry replica must not undo a
// newer sync).
//
// In-flight sessions on an invalidated asset finish unharmed:
// streaming.Server.RemoveAsset unlists the asset but running sessions
// keep their packet buffers; the next open misses and re-mirrors the
// fresh bytes from the origin.
func (e *Edge) SyncCatalog(cat proto.Catalog) []string {
	e.catMu.Lock()
	defer e.catMu.Unlock()
	if cat.Version <= e.catVersion && e.catAssets != nil {
		return nil
	}

	curAssets := make(map[string]uint64, len(cat.Assets))
	for _, a := range cat.Assets {
		curAssets[a.Name] = a.Rev
	}
	curGroups := make(map[string]catGroupRec, len(cat.Groups))
	// inAnyGroup marks variant names still referenced by the new
	// catalog, so invalidating a removed group never drops a variant
	// another live entry still needs.
	inAnyGroup := make(map[string]bool)
	for _, g := range cat.Groups {
		curGroups[g.Name] = catGroupRec{rev: g.Rev, variants: append([]string(nil), g.Variants...)}
		for _, v := range g.Variants {
			inAnyGroup[v] = true
		}
	}

	var invalidated []string
	if e.catAssets != nil { // not the baseline sync
		for name, rev := range e.catAssets {
			if cur, ok := curAssets[name]; !ok || cur != rev {
				if e.dropMirror(name) {
					invalidated = append(invalidated, name)
				}
			}
		}
		for name, rec := range e.catGroups {
			cur, ok := curGroups[name]
			if ok && cur.rev == rec.rev {
				continue
			}
			// The group definition is gone or re-cut: drop the local group
			// so the next /group/ demand re-mirrors it, and invalidate its
			// old variants unless the new catalog still wants them.
			if e.Server.RemoveRateGroup(name) {
				e.inst.invalidations.Inc()
			}
			for _, v := range rec.variants {
				if _, still := curAssets[v]; still || inAnyGroup[v] {
					continue
				}
				if e.dropMirror(v) {
					invalidated = append(invalidated, v)
				}
			}
		}
	}

	e.catVersion = cat.Version
	e.catAssets = curAssets
	e.catGroups = curGroups
	return invalidated
}

// assetRev and groupRev read the synced catalog's Rev for name: 0 when
// it is not listed, since a listed entry's Rev is the catalog version
// that published it. The caller holds catMu.
func (e *Edge) assetRev(name string) uint64 { return e.catAssets[name] }
func (e *Edge) groupRev(name string) uint64 { return e.catGroups[name].rev }

// landing reads rev(name) as a pull of name begins and returns the check
// for when it lands: drop runs if the name was listed then and its entry
// has moved since, as the landed bytes may be of the revision the edge
// synced past. That is SyncCatalog's rule (it drops only what its last
// catalog listed), and a sync holds catMu for its whole diff, so a sync
// before the check and one after it end the same.
func (e *Edge) landing(rev func(string) uint64, name string) (check func(drop func())) {
	e.catMu.Lock()
	before := rev(name)
	e.catMu.Unlock()
	return func(drop func()) {
		e.catMu.Lock()
		defer e.catMu.Unlock()
		if before != 0 && rev(name) != before {
			drop()
		}
	}
}

// dropMirror removes one stale mirrored asset: out of the cache
// accounting, off the edge server, and with every local group that
// lists it, which would otherwise select it into a 404 — the next group
// demand re-mirrors the group. Assets the cache never tracked were not
// mirrored by this edge (direct registrations) and are left alone.
func (e *Edge) dropMirror(name string) bool {
	if !e.cache.Remove(name) {
		return false
	}
	// A group lists only its registered variants, so the groups go first.
	for _, g := range e.Server.Groups() {
		if slices.Contains(g.Variants, name) && e.Server.RemoveRateGroup(g.Name) {
			e.inst.invalidations.Inc()
		}
	}
	e.Server.RemoveAsset(name)
	e.inst.invalidations.Inc()
	e.inst.cacheBytes.Set(e.cache.Bytes())
	return true
}

// CatalogVersion returns the version of the last synced catalog.
func (e *Edge) CatalogVersion() uint64 {
	e.catMu.Lock()
	defer e.catMu.Unlock()
	return e.catVersion
}

// SyncCatalogFrom fetches the registry's catalog and applies it —
// the convenience Heartbeats.OnCatalog callbacks use. A nil client
// uses proto.DefaultClient, whose timeouts bound the fetch.
func (e *Edge) SyncCatalogFrom(client *http.Client, registry string) error {
	cat, err := GetCatalog(detached(), client, registry)
	if err != nil {
		return err
	}
	e.SyncCatalog(cat)
	return nil
}
