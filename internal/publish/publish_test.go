package publish

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/asf"
	"repro/internal/capture"
	"repro/internal/codec"
	"repro/internal/contenttree"
	"repro/internal/media"
	"repro/internal/player"
)

func makeLecture(t *testing.T, dur time.Duration, slideCount int) *capture.Lecture {
	t.Helper()
	p, err := codec.ByName("modem-56k")
	if err != nil {
		t.Fatal(err)
	}
	lec, err := capture.NewLecture(capture.LectureConfig{
		Title: "Publish test", Duration: dur, Profile: p,
		SlideCount: slideCount, AnnotationEvery: dur / 3, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	return lec
}

func TestWriteRawLectureLayout(t *testing.T) {
	dir := t.TempDir()
	lec := makeLecture(t, 4*time.Second, 4)
	paths, err := WriteRawLecture(lec, dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{
		paths.VideoPath,
		filepath.Join(paths.SlidesDir, "slide01.png"),
		filepath.Join(paths.SlidesDir, "slide04.png"),
		filepath.Join(paths.SlidesDir, TimingManifest),
		paths.Annotations,
	} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("missing artifact %s: %v", p, err)
		}
	}
}

// TestFigure5PublishReplay is the E5 experiment: publish the lecture from
// its raw parts, then replay and verify the slide flips appear at the
// recorded times (Fig 5(b) "replay the representation").
func TestFigure5PublishReplay(t *testing.T) {
	dir := t.TempDir()
	lec := makeLecture(t, 6*time.Second, 6)
	paths, err := WriteRawLecture(lec, dir)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "published.asf")
	res, err := Publish(Request{
		Title:      lec.Title,
		VideoPath:  paths.VideoPath,
		SlidesDir:  paths.SlidesDir,
		OutputPath: out,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Slides != 6 {
		t.Fatalf("published %d slides, want 6", res.Slides)
	}
	// 6 slide commands + 2 annotations.
	if res.Scripts != 8 {
		t.Fatalf("scripts = %d, want 8", res.Scripts)
	}
	if res.Duration != 6*time.Second {
		t.Fatalf("duration = %v", res.Duration)
	}

	// Replay: the player must flip every slide at its recorded time.
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := player.New(player.Options{}).Play(f)
	if err != nil {
		t.Fatal(err)
	}
	flips := m.SlideEvents()
	if len(flips) != len(lec.Slides) {
		t.Fatalf("replay flipped %d slides, want %d", len(flips), len(lec.Slides))
	}
	for i, fl := range flips {
		if fl.Param != lec.Slides[i].Name || fl.PTS != lec.Slides[i].At {
			t.Errorf("flip %d = %q@%v, want %q@%v", i, fl.Param, fl.PTS, lec.Slides[i].Name, lec.Slides[i].At)
		}
	}
	if m.Annotations != len(lec.Annotations) {
		t.Errorf("replayed %d annotations, want %d", m.Annotations, len(lec.Annotations))
	}
	if m.VideoFrames != len(lec.Video) {
		t.Errorf("replayed %d video frames, want %d", m.VideoFrames, len(lec.Video))
	}
	if m.BrokenFrames != 0 {
		t.Errorf("%d broken frames on clean replay", m.BrokenFrames)
	}
}

// TestFigure6PublishedTree is the E6 experiment: the published lecture's
// content tree has the intro at level 0, section heads at level 1, slides
// at level 2, and monotone per-level presentation times.
func TestFigure6PublishedTree(t *testing.T) {
	lec := makeLecture(t, 9*time.Second, 9)
	tree, err := BuildContentTree(lec.Title, lec.Slides, lec.Duration, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := tree.Validate(); err != nil {
		t.Fatal(err)
	}
	if tree.Len() != 9 {
		t.Fatalf("tree has %d nodes, want 9", tree.Len())
	}
	if tree.HighestLevel() != 2 {
		t.Fatalf("highest level = %d, want 2", tree.HighestLevel())
	}
	lv := tree.LevelNodes()
	for q := 1; q < len(lv); q++ {
		if lv[q] <= lv[q-1] {
			t.Fatalf("LevelNodes not strictly increasing: %v", lv)
		}
	}
	// Full extraction covers the whole lecture.
	if lv[len(lv)-1] != 9*time.Second {
		t.Fatalf("full presentation time = %v, want 9s", lv[len(lv)-1])
	}
	// Root is the intro interval.
	if tree.Root().ID != lec.Title {
		t.Fatalf("root = %q", tree.Root().ID)
	}
}

func TestPublishWithoutTimingManifestSpreadsEvenly(t *testing.T) {
	dir := t.TempDir()
	lec := makeLecture(t, 4*time.Second, 4)
	paths, err := WriteRawLecture(lec, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(filepath.Join(paths.SlidesDir, TimingManifest)); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.asf")
	res, err := Publish(Request{
		VideoPath: paths.VideoPath, SlidesDir: paths.SlidesDir, OutputPath: out,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 4 slides across 4 s: flips at 0,1,2,3 s.
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	m, err := player.New(player.Options{}).Play(f)
	if err != nil {
		t.Fatal(err)
	}
	flips := m.SlideEvents()
	if len(flips) != 4 {
		t.Fatalf("flips = %d", len(flips))
	}
	for i, fl := range flips {
		if want := time.Duration(i) * time.Second; fl.PTS != want {
			t.Errorf("flip %d at %v, want %v", i, fl.PTS, want)
		}
	}
	_ = res
}

func TestPublishValidation(t *testing.T) {
	if _, err := Publish(Request{}); err == nil {
		t.Error("empty request accepted")
	}
	if _, err := Publish(Request{VideoPath: "/nope", SlidesDir: "/nope", OutputPath: "/tmp/x"}); err == nil {
		t.Error("missing video accepted")
	}
}

func TestPublishEmptySlidesDir(t *testing.T) {
	dir := t.TempDir()
	lec := makeLecture(t, 2*time.Second, 2)
	paths, err := WriteRawLecture(lec, dir)
	if err != nil {
		t.Fatal(err)
	}
	empty := filepath.Join(dir, "empty")
	if err := os.MkdirAll(empty, 0o755); err != nil {
		t.Fatal(err)
	}
	_, err = Publish(Request{
		VideoPath: paths.VideoPath, SlidesDir: empty,
		OutputPath: filepath.Join(dir, "out.asf"),
	})
	if !errors.Is(err, ErrNoSlides) {
		t.Fatalf("err = %v, want ErrNoSlides", err)
	}
}

func TestReadTimingErrors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, TimingManifest)

	cases := []struct {
		name    string
		content string
		wantErr bool
	}{
		{"good", "a.png 5s\n# comment\n\nb.png 10s\n", false},
		{"bad fields", "a.png\n", true},
		{"bad duration", "a.png xyz\n", true},
		{"negative", "a.png -5s\n", true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, []byte(tc.content), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := readTiming(path)
			if (err != nil) != tc.wantErr {
				t.Fatalf("readTiming err = %v, wantErr = %v", err, tc.wantErr)
			}
		})
	}
	// Missing manifest is fine.
	if _, err := readTiming(filepath.Join(dir, "absent.txt")); err != nil {
		t.Fatalf("missing manifest: %v", err)
	}
}

func TestReadAnnotationsErrors(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, AnnotationsFile)
	if err := os.WriteFile(path, []byte("25s see chapter three\n50s recap\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	anns, err := readAnnotations(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(anns) != 2 || anns[0].Text != "see chapter three" || anns[0].At != 25*time.Second {
		t.Fatalf("annotations = %+v", anns)
	}
	if err := os.WriteFile(path, []byte("nonsense\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readAnnotations(path); err == nil {
		t.Fatal("bad annotations accepted")
	}
	if got, err := readAnnotations(filepath.Join(dir, "absent")); err != nil || got != nil {
		t.Fatalf("missing annotations = %v,%v", got, err)
	}
}

func TestBuildContentTreeSectionSize(t *testing.T) {
	lec := makeLecture(t, 8*time.Second, 8)
	tree, err := BuildContentTree("T", lec.Slides, lec.Duration, 3)
	if err != nil {
		t.Fatal(err)
	}
	// Slides 2..8 (7 nodes): section heads at positions 1, 4, 7 → three
	// level-1 nodes, the other four at level 2.
	counts := map[int]int{}
	tree.Walk(func(_ *contenttree.Node, lvl int) bool {
		counts[lvl]++
		return true
	})
	if counts[0] != 1 || counts[1] != 3 || counts[2] != 4 {
		t.Fatalf("level counts = %v, want {0:1 1:3 2:4}", counts)
	}
}

func TestBuildContentTreeErrors(t *testing.T) {
	if _, err := BuildContentTree("T", nil, time.Second, 0); !errors.Is(err, ErrNoSlides) {
		t.Fatalf("empty slides = %v", err)
	}
	bad := []capture.Slide{{Name: "late.png", At: 10 * time.Second}}
	if _, err := BuildContentTree("T", bad, time.Second, 0); err == nil {
		t.Fatal("slide past end accepted")
	}
}

// TestPublishKeepsMediaPayloads pins what Publish does to the recording
// itself: remuxing adds scripts and slides around the video and audio
// packets but must carry their payload bytes through untouched, packet
// for packet. (Publish keeps every payload it reads until the remux, so
// this is also the test that fails, under -tags asfpoison, if it keeps
// packets the reader only lent.)
func TestPublishKeepsMediaPayloads(t *testing.T) {
	dir := t.TempDir()
	lec := makeLecture(t, 6*time.Second, 6)
	paths, err := WriteRawLecture(lec, dir)
	if err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "published.asf")
	if _, err := Publish(Request{VideoPath: paths.VideoPath, SlidesDir: paths.SlidesDir, OutputPath: out}); err != nil {
		t.Fatal(err)
	}
	mediaPackets := func(path string) map[media.Kind][]asf.Packet {
		t.Helper()
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		_, packets, _, err := asf.ReadAll(f)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		byKind := make(map[media.Kind][]asf.Packet)
		for _, p := range packets {
			byKind[p.Kind] = append(byKind[p.Kind], p)
		}
		return byKind
	}
	src, got := mediaPackets(paths.VideoPath), mediaPackets(out)
	for _, kind := range []media.Kind{media.KindVideo, media.KindAudio} {
		if len(src[kind]) == 0 || len(got[kind]) != len(src[kind]) {
			t.Fatalf("%s: published %d packets, recording has %d", kind, len(got[kind]), len(src[kind]))
		}
		for i, want := range src[kind] {
			if p := got[kind][i]; p.PTS != want.PTS || !bytes.Equal(p.Payload, want.Payload) {
				t.Fatalf("%s packet %d (pts %v): payload differs from the recording's (pts %v)", kind, i, p.PTS, want.PTS)
			}
		}
	}
}
