package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"

	"lpbuf/internal/obs"
	"lpbuf/internal/runner"
)

// ArtifactSchema versions the JSON result format written by
// `lpbuf -json`. Bump it on any breaking change to the Artifact
// structure (the golden test pins the current shape).
const ArtifactSchema = "lpbuf.artifact/v1"

// Artifact is the machine-readable counterpart of `lpbuf -all`: every
// figure, the headline aggregates, and the runner's execution counters
// (per-job wall times, compile/simulate split, cache hits/misses, peak
// in-flight). Sections are optional — only the experiments that
// actually ran are present — so per-PR bench trajectories can be
// produced and diffed with any subset of figures.
type Artifact struct {
	Schema      string   `json:"schema"`
	Benchmarks  []string `json:"benchmarks"`
	BufferSizes []int    `json:"buffer_sizes"`

	// Figure7 maps config ("traditional"/"aggressive") to curves.
	Figure7  map[string][]Fig7Row `json:"figure7,omitempty"`
	Figure8a []Fig8aRow           `json:"figure8a,omitempty"`
	Figure8b []Fig8bRow           `json:"figure8b,omitempty"`
	Figure3  *Fig3                `json:"figure3,omitempty"`
	Figure5  []*Fig5              `json:"figure5,omitempty"`
	Encoding []EncodingRow        `json:"encoding,omitempty"`
	Shootout []ShootoutRow        `json:"shootout,omitempty"`
	Headline *Headline            `json:"headline,omitempty"`

	Runner *runner.Snapshot `json:"runner,omitempty"`
	// Metrics embeds the observability registry snapshot (simulator,
	// runner and compile counters) so experiment sweeps carry their
	// own telemetry.
	Metrics *obs.RegistrySnapshot `json:"metrics,omitempty"`
}

// Figures names the sections BuildArtifact computes and RenderArtifact
// prints, in the order of both. Figure 7 comes first: its batched
// sweeps fill the run cache the later single-size figures hit.
var Figures = []string{"7", "8a", "8b", "3", "5", "shootout", "encoding", "headline"}

// NewArtifact creates an empty artifact for the registered benchmark
// suite and the Figure 7 sweep sizes.
func NewArtifact() *Artifact {
	return &Artifact{
		Schema:      ArtifactSchema,
		Benchmarks:  Benchmarks(),
		BufferSizes: append([]int(nil), BufferSizes...),
	}
}

// Encode renders the artifact as indented JSON with a trailing
// newline.
func (a *Artifact) Encode() ([]byte, error) {
	data, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

// WriteFile writes the encoded artifact to path.
func (a *Artifact) WriteFile(path string) error {
	data, err := a.Encode()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// DecodeArtifact parses and schema-checks an encoded artifact (the
// client side of `lpbuf -submit` and cmd/obscheck validation).
func DecodeArtifact(data []byte) (*Artifact, error) {
	var a Artifact
	if err := json.Unmarshal(data, &a); err != nil {
		return nil, fmt.Errorf("artifact: %w", err)
	}
	if a.Schema != ArtifactSchema {
		return nil, fmt.Errorf("artifact schema %q, want %q", a.Schema, ArtifactSchema)
	}
	return &a, nil
}

// BuildArtifact computes the requested figures (names from Figures) in
// Figures order, checking ctx before each one, into a new artifact.
// fig5Sizes are the Figure 5 buffer sizes and fig7Sizes the Figure 7
// sweep (also recorded as the artifact's BufferSizes). Runner and
// registry snapshots are left to the caller.
func (s *Suite) BuildArtifact(ctx context.Context, figures []string, fig5Sizes, fig7Sizes []int) (*Artifact, error) {
	want := map[string]bool{}
	for _, f := range figures {
		if !slices.Contains(Figures, f) {
			return nil, fmt.Errorf("unknown figure %q (known: %s)", f, strings.Join(Figures, ", "))
		}
		want[f] = true
	}
	art := NewArtifact()
	for _, fig := range Figures {
		if !want[fig] {
			continue
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var err error
		switch fig {
		case "3":
			art.Figure3, err = s.Figure3Ctx(ctx)
		case "5":
			for _, sz := range fig5Sizes {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				f5, err := s.Figure5(sz)
				if err != nil {
					return nil, err
				}
				art.Figure5 = append(art.Figure5, f5)
			}
		case "7":
			art.BufferSizes = append([]int(nil), fig7Sizes...)
			art.Figure7 = map[string][]Fig7Row{}
			for _, cfg := range []string{"traditional", "aggressive"} {
				rows, err := s.Figure7Ctx(ctx, cfg, fig7Sizes)
				if err != nil {
					return nil, err
				}
				art.Figure7[cfg] = rows
			}
		case "8a":
			art.Figure8a, err = s.Figure8aCtx(ctx)
		case "8b":
			art.Figure8b, err = s.Figure8bCtx(ctx)
		case "encoding":
			art.Encoding, err = s.EncodingCosts()
		case "headline":
			art.Headline, err = s.ComputeHeadlineCtx(ctx)
		case "shootout":
			art.Shootout, err = s.ShootoutCtx(ctx)
		}
		if err != nil {
			return nil, err
		}
	}
	return art, nil
}

// RenderArtifact formats every section the artifact carries as the
// text tables of `lpbuf`, in Figures order, each followed by a blank
// line.
func RenderArtifact(a *Artifact) string {
	var sb strings.Builder
	section := func(text string) {
		sb.WriteString(text)
		sb.WriteString("\n")
	}
	for _, cfg := range []string{"traditional", "aggressive"} {
		if rows, ok := a.Figure7[cfg]; ok {
			title := "Figure 7(a): % instruction issue from loop buffer, traditional optimization"
			if cfg == "aggressive" {
				title = "Figure 7(b): % instruction issue from loop buffer, hyperblock transformations"
			}
			section(RenderFig7(title, rows, a.BufferSizes))
		}
	}
	if a.Figure8a != nil {
		section(RenderFig8a(a.Figure8a))
	}
	if a.Figure8b != nil {
		section(RenderFig8b(a.Figure8b))
	}
	if a.Figure3 != nil {
		section(RenderFig3(a.Figure3))
	}
	for _, f5 := range a.Figure5 {
		section(RenderFig5(f5))
	}
	if a.Shootout != nil {
		section(RenderShootout(a.Shootout))
	}
	if a.Encoding != nil {
		section(RenderEncoding(a.Encoding))
	}
	if a.Headline != nil {
		section(RenderHeadline(a.Headline))
	}
	return sb.String()
}
