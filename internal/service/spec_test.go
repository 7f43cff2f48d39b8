package service

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
)

func TestNormalizedCanonicalizes(t *testing.T) {
	// Differently-spelled requests for the same work must normalize
	// identically: case, order, duplicates and explicit defaults all
	// wash out.
	a, err := JobSpec{Figures: []string{"8A", "5", "5", "3"}}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	b, err := JobSpec{Schema: JobSchema, Figures: []string{"3", "5", "8a"},
		Fig5Sizes: []int{64, 16, 32, 16}}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("equivalent specs normalized differently:\n%+v\n%+v", a, b)
	}
	if want := []string{"3", "5", "8a"}; !reflect.DeepEqual(a.Figures, want) {
		t.Fatalf("figures = %v, want %v", a.Figures, want)
	}
	if want := []int{16, 32, 64}; !reflect.DeepEqual(a.Fig5Sizes, want) {
		t.Fatalf("fig5 sizes = %v, want %v (paper defaults)", a.Fig5Sizes, want)
	}
}

func TestNormalizedExpandsAll(t *testing.T) {
	s, err := JobSpec{Figures: []string{"all"}}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Figures, canonicalFigures) {
		t.Fatalf("all expanded to %v, want %v", s.Figures, canonicalFigures)
	}
	if len(s.Fig7Sizes) == 0 || len(s.Fig5Sizes) == 0 {
		t.Fatalf("all must pin explicit sweeps, got fig7=%v fig5=%v", s.Fig7Sizes, s.Fig5Sizes)
	}
}

func TestNormalizedDropsUnrequestedSweeps(t *testing.T) {
	s, err := JobSpec{Figures: []string{"3"}, Fig7Sizes: []int{8}, Fig5Sizes: []int{8}}.Normalized()
	if err != nil {
		t.Fatal(err)
	}
	if s.Fig7Sizes != nil || s.Fig5Sizes != nil {
		t.Fatalf("sweeps for unrequested figures survived: %+v", s)
	}
}

func TestNormalizedRejects(t *testing.T) {
	for _, spec := range []JobSpec{
		{},                       // no figures
		{Figures: []string{"9"}}, // unknown figure
		{Schema: "bogus/v9", Figures: []string{"5"}},   // wrong schema
		{Figures: []string{"5"}, Fig5Sizes: []int{0}},  // non-positive size
		{Figures: []string{"7"}, Fig7Sizes: []int{-4}}, // non-positive size
	} {
		if _, err := spec.Normalized(); err == nil {
			t.Errorf("spec %+v normalized without error", spec)
		}
	}
}

func TestKeyStableAndClientIndependent(t *testing.T) {
	k1, err := JobSpec{Figures: []string{"5", "3"}, Client: "alice"}.Key()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := JobSpec{Figures: []string{"3", "5", "5"}, Client: "bob"}.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Fatalf("same work keyed differently: %s vs %s (client must not affect the key)", k1, k2)
	}
	if len(k1) != 64 {
		t.Fatalf("key %q is not a sha256 hex digest", k1)
	}
	k3, err := JobSpec{Figures: []string{"3", "5"}, Verify: true}.Key()
	if err != nil {
		t.Fatal(err)
	}
	if k3 == k1 {
		t.Fatal("verify flag did not change the key; verified and unverified artifacts would collide")
	}
}

func TestStatusValidate(t *testing.T) {
	key, err := JobSpec{Figures: []string{"5"}}.Key()
	if err != nil {
		t.Fatal(err)
	}
	good := JobStatus{
		Schema: StatusSchema, ID: "job-000001", State: StateDone, Key: key,
		Spec:        JobSpec{Schema: JobSchema, Figures: []string{"5"}, Fig5Sizes: []int{16, 32, 64}},
		ArtifactURL: "/v1/jobs/job-000001/artifact",
	}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid status rejected: %v", err)
	}
	for name, mutate := range map[string]func(*JobStatus){
		"schema":          func(s *JobStatus) { s.Schema = "nope" },
		"id":              func(s *JobStatus) { s.ID = "" },
		"state":           func(s *JobStatus) { s.State = "exploded" },
		"key":             func(s *JobStatus) { s.Key = "abc" },
		"spec":            func(s *JobStatus) { s.Spec.Figures = nil },
		"done-no-url":     func(s *JobStatus) { s.ArtifactURL = "" },
		"failed-no-error": func(s *JobStatus) { s.State = StateFailed; s.ArtifactURL = "" },
	} {
		bad := good
		mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s: invalid status accepted", name)
		}
	}
}

// FuzzJobSpec fuzzes the submit boundary: an untrusted body through
// the handler's decoder, then Normalized and Key. Decoding never
// panics, normalizing a normalized spec changes nothing, and the key
// survives re-encoding the normalized spec and decoding it again (what
// lpbuf -submit and a store shared between daemons rely on). Run with:
//
//	go test -run Fuzz -fuzz=FuzzJobSpec -fuzztime=30s ./internal/service
func FuzzJobSpec(f *testing.F) {
	// The warm spec shapes of the service-mix benchmark workload.
	for _, spec := range []JobSpec{
		{Figures: []string{"7"}},
		{Figures: []string{"8a"}},
		{Figures: []string{"8b"}},
		{Figures: []string{"headline"}},
		{Figures: []string{"5"}},
		{Figures: []string{"3"}},
		{Figures: []string{"encoding"}},
		{Figures: []string{"7", "8a", "8b", "headline"}},
		{Figures: []string{"5"}, Fig5Sizes: []int{128}},
		{Figures: []string{"7"}, Fig7Sizes: []int{64, 256}},
		{Figures: []string{"8a", "8b"}},
		{Figures: []string{"3", "5"}},
	} {
		body, err := json.Marshal(spec)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, body := range []string{
		``,
		`{`,
		`null`,
		`[]`,
		`"7"`,
		`{"figures":[7]}`,
		`{"figures":["ALL"," 5 ","5"],"client":"\u00ff\ud800"}`,
		`{"schema":"lpbuf.job/v2","figures":["3"]}`,
		`{"figures":["7"],"fig7_sizes":[-1]}`,
		`{"figures":["7"],"fig7_sizes":[1e400]}`,
		`{"figures":["5"],"fig5_sizes":[9223372036854775807,1,1]}`,
		`{"figures":["3"],"bogus":true}`,
		`{"figures":["3"],"verify":"yes"}`,
		`{"figures":["3"]} trailing`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		spec, err := decodeJobSpec(bytes.NewReader(body))
		if err != nil {
			return
		}
		norm, err := spec.Normalized()
		if err != nil {
			if _, kerr := spec.Key(); kerr == nil {
				t.Fatalf("spec %+v has a key but does not normalize: %v", spec, err)
			}
			return
		}
		again, err := norm.Normalized()
		if err != nil {
			t.Fatalf("normalized spec %+v does not normalize: %v", norm, err)
		}
		if !reflect.DeepEqual(again, norm) {
			t.Fatalf("Normalized is not idempotent:\n%+v\n%+v", norm, again)
		}
		key, err := spec.Key()
		if err != nil {
			t.Fatalf("normalized spec %+v has no key: %v", norm, err)
		}
		enc, err := json.Marshal(norm)
		if err != nil {
			t.Fatal(err)
		}
		decoded, err := decodeJobSpec(bytes.NewReader(enc))
		if err != nil {
			t.Fatalf("re-encoded spec %s does not decode: %v", enc, err)
		}
		rekey, err := decoded.Key()
		if err != nil {
			t.Fatalf("re-encoded spec %s has no key: %v", enc, err)
		}
		if rekey != key {
			t.Fatalf("key changed across re-encoding %s: %s -> %s", enc, key, rekey)
		}
	})
}
