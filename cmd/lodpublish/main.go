// Command lodpublish is the web publishing manager CLI (§3, Figure 5): it
// takes the path of a recorded video container and a directory of slides
// and produces one synchronized container with temporal script commands,
// printing the resulting multi-level content tree.
//
// Beyond the offline pipeline it is also the cluster's live publishing
// client: with -origin the produced container is pushed onto a running
// origin server (replacing any previous copy under the same name without
// a restart), and with -registry the publish is announced in the
// cluster catalog so every edge invalidates its stale mirror on the next
// heartbeat. -unpublish reverses both.
//
// Usage:
//
//	lodpublish -video video.asf -slides slides/ -o published.asf
//	lodpublish -demo -dir work/   # generate demo inputs first, then publish
//
//	# produce and push live onto a running cluster
//	lodpublish -demo -origin http://origin:8080 -registry http://origin:9090 -name lecture1
//
//	# take lecture1 down cluster-wide; in-flight sessions finish
//	lodpublish -unpublish lecture1 -origin http://origin:8080 -registry http://origin:9090
package main

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/capture"
	"repro/internal/codec"
	"repro/internal/proto"
	"repro/internal/publish"
	"repro/internal/relay"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lodpublish:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("lodpublish", flag.ContinueOnError)
	video := fs.String("video", "", "path of the recorded video container")
	slides := fs.String("slides", "", "directory of the presented slides")
	out := fs.String("o", "published.asf", "output path")
	title := fs.String("title", "", "published title (defaults to the recording's)")
	demo := fs.Bool("demo", false, "generate demo recording + slides first")
	dir := fs.String("dir", "wmps-demo", "working directory for -demo")
	origin := fs.String("origin", "", "origin server base URL: push the published container live onto it")
	registry := fs.String("registry", "", "cluster registry base URL: announce the publish in the content catalog")
	name := fs.String("name", "", "asset name for live publish (defaults to the output file name without extension)")
	unpublish := fs.String("unpublish", "", "remove this asset live from -origin and/or the -registry catalog instead of publishing")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *unpublish != "" {
		if *origin == "" && *registry == "" {
			return fmt.Errorf("-unpublish needs -origin and/or -registry to act on")
		}
		return runUnpublish(*unpublish, *origin, *registry)
	}

	if *demo {
		profile, err := codec.ByName("dsl-300k")
		if err != nil {
			return err
		}
		lec, err := capture.NewLecture(capture.LectureConfig{
			Title: "Demo lecture", Duration: 60 * time.Second, Profile: profile,
			SlideCount: 12, AnnotationEvery: 20 * time.Second, Seed: 2002,
		})
		if err != nil {
			return err
		}
		paths, err := publish.WriteRawLecture(lec, *dir)
		if err != nil {
			return err
		}
		*video = paths.VideoPath
		*slides = paths.SlidesDir
		if *out == "published.asf" {
			*out = filepath.Join(*dir, "published.asf")
		}
		fmt.Printf("demo inputs written under %s\n", *dir)
	}
	if *video == "" || *slides == "" {
		return fmt.Errorf("both -video and -slides are required (or use -demo)")
	}

	res, err := publish.Publish(publish.Request{
		Title:      *title,
		VideoPath:  *video,
		SlidesDir:  *slides,
		OutputPath: *out,
	})
	if err != nil {
		return err
	}
	fmt.Printf("published %s: %d slides, %d script commands, %v total\n",
		res.AssetPath, res.Slides, res.Scripts, res.Duration)
	fmt.Println("content tree of the published presentation:")
	fmt.Print(res.Tree.String())
	for q, d := range res.Tree.LevelNodes() {
		fmt.Printf("  level %d presentation time: %v\n", q, d)
	}

	if *origin != "" || *registry != "" {
		assetName := *name
		if assetName == "" {
			base := filepath.Base(res.AssetPath)
			assetName = strings.TrimSuffix(base, filepath.Ext(base))
		}
		return runLivePublish(assetName, res.AssetPath, *origin, *registry)
	}
	return nil
}

// runLivePublish pushes a produced container onto a running origin and
// announces it in the registry catalog. The origin push happens first:
// by the time edges learn of the new revision and invalidate their
// mirrors, the origin already serves the fresh bytes, so re-mirroring
// never races the swap.
func runLivePublish(name, path, origin, registry string) error {
	if origin != "" {
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		err = relay.PublishAsset(context.Background(), nil, origin, name, bufio.NewReader(f))
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return fmt.Errorf("push to origin: %w", err)
		}
		fmt.Printf("pushed %q live onto origin %s\n", name, origin)
	}
	if registry != "" {
		ver, err := relay.PublishCatalog(context.Background(), nil, registry, proto.PublishMsg{
			Asset: &proto.CatalogAsset{Name: name},
		})
		if err != nil {
			return fmt.Errorf("announce in catalog: %w", err)
		}
		fmt.Printf("announced %q in catalog (version %d)\n", name, ver)
	}
	return nil
}

// runUnpublish takes an asset down live: removed from the origin (new
// opens 404, in-flight sessions finish) and withdrawn from the catalog
// (edges drop their mirrors on the next heartbeat). A 404 on one leg
// means the asset was already gone there — a restarted origin forgets
// its live publishes while the catalog remembers them — so it is noted
// and the other leg still runs; only both legs missing is an error.
func runUnpublish(name, origin, registry string) error {
	removed := 0
	if origin != "" {
		switch err := relay.UnpublishAsset(context.Background(), nil, origin, name); {
		case err == nil:
			removed++
			fmt.Printf("removed %q from origin %s\n", name, origin)
		case relay.IsNotFound(err):
			fmt.Printf("origin %s does not have %q (already removed)\n", origin, name)
		default:
			return fmt.Errorf("unpublish from origin: %w", err)
		}
	}
	if registry != "" {
		switch ver, err := relay.UnpublishCatalog(context.Background(), nil, registry, proto.UnpublishMsg{Asset: name}); {
		case err == nil:
			removed++
			fmt.Printf("withdrew %q from catalog (version %d)\n", name, ver)
		case relay.IsNotFound(err):
			fmt.Printf("catalog at %s does not list %q (already withdrawn)\n", registry, name)
		default:
			return fmt.Errorf("withdraw from catalog: %w", err)
		}
	}
	if removed == 0 {
		return fmt.Errorf("%q was not present anywhere", name)
	}
	return nil
}
