// Package publish implements the paper's web publishing manager (§3,
// Figure 5): "User must fill the path of video file (MPEG4) and the
// directory of the presented slides. Our system could make the video and
// presented slides synchronized with the temporal script commands as an
// advanced stream format (ASF) file automatically."
//
// Publish reads a recorded audio/video container, a slide directory with a
// timing manifest, and optional annotations, and produces one synchronized
// container whose header (and, for live republish, in-band packets) carry
// the slide-flip and annotation script commands. It also constructs the
// multi-level content tree of the published presentation (Figure 6).
package publish

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/asf"
	"repro/internal/capture"
	"repro/internal/codec"
	"repro/internal/contenttree"
	"repro/internal/encoder"
	"repro/internal/media"
)

// TimingManifest is the file name inside a slide directory mapping slides
// to display times. Each line: "<file> <offset>", e.g. "slide01.png 0s".
// Without a manifest, slides are spread evenly across the video duration.
const TimingManifest = "timing.txt"

// AnnotationsFile is the optional annotations file: "<offset> <text>".
const AnnotationsFile = "annotations.txt"

// Errors.
var (
	ErrNoSlides = errors.New("publish: slide directory contains no slides")
)

// Request is one publishing operation (the Fig 5(a) form).
type Request struct {
	// Title of the published presentation.
	Title string
	// VideoPath is the recorded AV container (the paper's "path of video
	// file (MPEG4)").
	VideoPath string
	// SlidesDir is "the directory of the presented slides".
	SlidesDir string
	// AnnotationsPath optionally points to an annotations file; empty
	// means SlidesDir/annotations.txt if present.
	AnnotationsPath string
	// OutputPath is where the synchronized container is written.
	OutputPath string
	// Live re-publishes as a live-style stream with in-band scripts.
	Live bool
	// SectionSize groups this many slides per content-tree section; zero
	// chooses ceil(sqrt(len(slides))).
	SectionSize int
}

// Result summarizes a publish operation.
type Result struct {
	// AssetPath is the written container.
	AssetPath string
	// Scripts is the number of script commands embedded.
	Scripts int
	// Slides is the number of slides synchronized.
	Slides int
	// Tree is the multi-level content tree of the presentation (Fig 6).
	Tree *contenttree.Tree
	// Stats are the remux statistics.
	Stats encoder.Stats
	// Duration is the published presentation length.
	Duration time.Duration
}

// Publish runs the full §3 workflow.
func Publish(req Request) (*Result, error) {
	if req.VideoPath == "" || req.SlidesDir == "" || req.OutputPath == "" {
		return nil, errors.New("publish: VideoPath, SlidesDir and OutputPath are required")
	}
	videoSamples, audioSamples, header, err := readVideoContainer(req.VideoPath)
	if err != nil {
		return nil, err
	}
	duration := header.Duration
	if duration == 0 {
		for _, s := range videoSamples {
			if end := s.PTS + s.Duration; end > duration {
				duration = end
			}
		}
	}
	slides, err := readSlides(req.SlidesDir, duration)
	if err != nil {
		return nil, err
	}
	annPath := req.AnnotationsPath
	if annPath == "" {
		annPath = filepath.Join(req.SlidesDir, AnnotationsFile)
	}
	annotations, err := readAnnotations(annPath)
	if err != nil {
		return nil, err
	}

	// Temporal script commands: one slide flip per slide, one annotation
	// command per annotation.
	var scripts []asf.ScriptCommand
	for _, s := range slides {
		scripts = append(scripts, asf.ScriptCommand{At: s.At, Type: "slide", Param: s.Name})
	}
	for _, a := range annotations {
		scripts = append(scripts, asf.ScriptCommand{At: a.At, Type: "annotation", Param: a.Text})
	}
	sort.SliceStable(scripts, func(i, j int) bool { return scripts[i].At < scripts[j].At })

	title := req.Title
	if title == "" {
		title = header.Title
	}

	// Remux through an encoder session.
	profile, err := profileFromHeader(header)
	if err != nil {
		return nil, err
	}
	sess, err := encoder.New(encoder.Config{
		Title:   title,
		Profile: profile,
		Live:    req.Live,
		Scripts: scripts,
	})
	if err != nil {
		return nil, err
	}
	if len(videoSamples) > 0 {
		sess.AddSource(encoder.NewSampleSource(media.KindVideo, videoSamples))
	}
	if len(audioSamples) > 0 {
		sess.AddSource(encoder.NewSampleSource(media.KindAudio, audioSamples))
	}
	sess.AddSlides(slides)

	out, err := os.Create(req.OutputPath)
	if err != nil {
		return nil, fmt.Errorf("publish: create output: %w", err)
	}
	stats, err := sess.EncodeTo(out)
	if cerr := out.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("publish: close output: %w", cerr)
	}
	if err != nil {
		return nil, err
	}

	tree, err := BuildContentTree(title, slides, duration, req.SectionSize)
	if err != nil {
		return nil, err
	}
	return &Result{
		AssetPath: req.OutputPath,
		Scripts:   len(scripts),
		Slides:    len(slides),
		Tree:      tree,
		Stats:     stats,
		Duration:  duration,
	}, nil
}

// readVideoContainer loads AV samples back out of a stored container.
func readVideoContainer(path string) (video, audio []media.Sample, h asf.Header, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, h, fmt.Errorf("publish: open video: %w", err)
	}
	defer func() {
		_ = f.Close()
	}()
	r := asf.NewReader(f)
	h, err = r.ReadHeader()
	if err != nil {
		return nil, nil, h, fmt.Errorf("publish: video header: %w", err)
	}
	for {
		p, rerr := r.ReadPacket()
		if rerr != nil {
			if errors.Is(rerr, io.EOF) {
				break
			}
			return nil, nil, h, fmt.Errorf("publish: video packet: %w", rerr)
		}
		// The samples outlive the read that lent p.
		s := media.Sample{
			Stream: p.Stream, Kind: p.Kind, PTS: p.PTS, Duration: p.Dur,
			Keyframe: p.Keyframe(), Data: p.Clone().Payload,
		}
		switch p.Kind {
		case media.KindVideo:
			video = append(video, s)
		case media.KindAudio:
			audio = append(audio, s)
		}
	}
	return video, audio, h, nil
}

// profileFromHeader picks the ladder profile whose video bit rate is
// closest to the recorded stream's, so the remuxed header advertises
// comparable rates.
func profileFromHeader(h asf.Header) (codec.Profile, error) {
	videoRate := streamRate(h, media.StreamVideo)
	ps := codec.Ladder()
	best := ps[0]
	bestDiff := int64(math.MaxInt64)
	for _, p := range ps {
		diff := p.VideoBitsPerSecond - videoRate
		if diff < 0 {
			diff = -diff
		}
		if diff < bestDiff {
			best, bestDiff = p, diff
		}
	}
	return best, nil
}

func streamRate(h asf.Header, id media.StreamID) int64 {
	if st, ok := h.StreamByID(id); ok {
		return st.BitsPerSecond
	}
	return 0
}

// readSlides loads the slide images and their display times.
func readSlides(dir string, videoDur time.Duration) ([]capture.Slide, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("publish: read slides dir: %w", err)
	}
	var names []string
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		name := e.Name()
		if name == TimingManifest || name == AnnotationsFile {
			continue
		}
		names = append(names, name)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, ErrNoSlides
	}

	timing, err := readTiming(filepath.Join(dir, TimingManifest))
	if err != nil {
		return nil, err
	}
	slides := make([]capture.Slide, 0, len(names))
	interval := videoDur / time.Duration(len(names))
	for i, name := range names {
		img, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			return nil, fmt.Errorf("publish: read slide %s: %w", name, err)
		}
		at, ok := timing[name]
		if !ok {
			at = time.Duration(i) * interval
		}
		slides = append(slides, capture.Slide{Name: name, At: at, Image: img})
	}
	sort.SliceStable(slides, func(i, j int) bool { return slides[i].At < slides[j].At })
	return slides, nil
}

// readTiming parses the timing manifest; a missing file yields an empty map.
func readTiming(path string) (map[string]time.Duration, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return map[string]time.Duration{}, nil
		}
		return nil, fmt.Errorf("publish: open timing manifest: %w", err)
	}
	defer func() {
		_ = f.Close()
	}()
	out := make(map[string]time.Duration)
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, fmt.Errorf("publish: timing manifest line %d: want \"<file> <offset>\"", line)
		}
		d, err := time.ParseDuration(fields[1])
		if err != nil {
			return nil, fmt.Errorf("publish: timing manifest line %d: %w", line, err)
		}
		if d < 0 {
			return nil, fmt.Errorf("publish: timing manifest line %d: negative offset", line)
		}
		out[fields[0]] = d
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("publish: timing manifest: %w", err)
	}
	return out, nil
}

// readAnnotations parses "<offset> <text...>" lines; a missing file is fine.
func readAnnotations(path string) ([]capture.Annotation, error) {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("publish: open annotations: %w", err)
	}
	defer func() {
		_ = f.Close()
	}()
	var out []capture.Annotation
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.SplitN(text, " ", 2)
		if len(fields) != 2 {
			return nil, fmt.Errorf("publish: annotations line %d: want \"<offset> <text>\"", line)
		}
		d, err := time.ParseDuration(fields[0])
		if err != nil {
			return nil, fmt.Errorf("publish: annotations line %d: %w", line, err)
		}
		out = append(out, capture.Annotation{At: d, Text: fields[1]})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("publish: annotations: %w", err)
	}
	return out, nil
}

// BuildContentTree constructs the Figure 6 multi-level content tree of a
// published presentation: the intro slide interval is the level-0 summary,
// section-head slides form level 1, and the remaining slides sit at level 2
// under their section heads. Extracting level q yields presentations of
// increasing length, per §2.2.
func BuildContentTree(title string, slides []capture.Slide, total time.Duration, sectionSize int) (*contenttree.Tree, error) {
	if len(slides) == 0 {
		return nil, ErrNoSlides
	}
	if sectionSize <= 0 {
		sectionSize = int(math.Ceil(math.Sqrt(float64(len(slides)))))
	}
	intervals := make([]time.Duration, len(slides))
	for i := range slides {
		end := total
		if i+1 < len(slides) {
			end = slides[i+1].At
		}
		intervals[i] = end - slides[i].At
		if intervals[i] < 0 {
			return nil, fmt.Errorf("publish: slide %s starts after the presentation ends", slides[i].Name)
		}
	}
	tree := contenttree.New()
	if err := tree.Attach(rootID(title), intervals[0], 0); err != nil {
		return nil, err
	}
	for i := 1; i < len(slides); i++ {
		level := 2
		if (i-1)%sectionSize == 0 {
			level = 1 // section head
		}
		if err := tree.Attach(slides[i].Name, intervals[i], level); err != nil {
			return nil, err
		}
	}
	return tree, nil
}

func rootID(title string) string {
	if title == "" {
		return "presentation"
	}
	return title
}
