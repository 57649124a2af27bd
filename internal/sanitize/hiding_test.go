// Hiding regression: the observability layer must never emit raw
// certificate bytes. Every channel an operator can see — manifests, span
// traces, progress lines, stringified views, violation and soundness error
// texts — is driven here with a distinctive marker planted in every label,
// and the marker must not survive into any output. This pins the
// redactions that certflow enforces statically (obs.Redact*, view.KeyDigest,
// length-only decoder errors) against the live pipelines.
package sanitize_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hidinglcp/internal/core"
	"hidinglcp/internal/graph"
	"hidinglcp/internal/nbhd"
	"hidinglcp/internal/obs"
	"hidinglcp/internal/obs/export"
	"hidinglcp/internal/sanitize"
	"hidinglcp/internal/view"
)

// hidingMarker is a byte sequence that cannot occur by chance in any
// honest output; its presence anywhere downstream is a leak.
const hidingMarker = "HIDEME-SECRET-7Q3"

// markerAlphabet labels every node with marker-bearing certificates.
func markerAlphabet() []string {
	return []string{hidingMarker + "-a", hidingMarker + "-b"}
}

// assertHidden fails if any observable output contains the marker.
func assertHidden(t *testing.T, channel, output string) {
	t.Helper()
	if strings.Contains(output, hidingMarker) {
		t.Errorf("%s leaks raw certificate bytes:\n%s", channel, output)
	}
}

// markerDecoder accepts exactly the "-a" marker certificate, so sweeps over
// the marker alphabet exercise both accept and reject paths.
type markerDecoder struct{}

func (markerDecoder) Rounds() int     { return 1 }
func (markerDecoder) Anonymous() bool { return true }
func (markerDecoder) Decide(mu *view.View) bool {
	return mu.Labels[view.Center] == hidingMarker+"-a"
}

// TestHidingScopedPipelines drives the instrumented enumeration and
// soundness pipelines with marker labels and checks every emission channel:
// the span trace JSON, the progress lines, and the finalized run manifest.
func TestHidingScopedPipelines(t *testing.T) {
	inst := core.NewAnonymousInstance(graph.Path(3))
	alpha := markerAlphabet()

	var progressBuf bytes.Buffer
	prog := obs.NewProgress(&progressBuf, time.Millisecond)
	tr := obs.NewTracer(256)
	sc := obs.NewScope().WithTracer(tr).WithProgress(prog)

	if _, err := nbhd.BuildShardedCtx(context.Background(), sc, markerDecoder{}, nbhd.ShardedAllLabelings(alpha, inst), 4, 2); err != nil {
		t.Fatal(err)
	}
	runErr := core.ExhaustiveStrongSoundnessParallelCtx(context.Background(), sc, markerDecoder{}, core.TwoCol(), inst, alpha, 4, 2)
	prog.Close()

	var traceBuf bytes.Buffer
	if err := tr.WriteJSON(&traceBuf); err != nil {
		t.Fatal(err)
	}
	assertHidden(t, "span trace JSON", traceBuf.String())
	assertHidden(t, "progress lines", progressBuf.String())
	if runErr != nil {
		assertHidden(t, "soundness sweep error", runErr.Error())
	}

	m := obs.NewManifest("hiding-regression", []string{"sweep"})
	m.Finalize(sc, runErr)
	manifest, err := m.MarshalIndent()
	if err != nil {
		t.Fatal(err)
	}
	assertHidden(t, "run manifest JSON", string(manifest))
}

// TestHidingLiveTelemetryPlane drives the instrumented pipelines with
// marker labels while the telemetry plane is attached — metric registry
// and span tracer — and then scrapes every surface the plane exposes: the
// Prometheus /metrics text and the /trace JSON, including the sweep span's
// violation_rank attribute. The marker must not reach any of them. On the
// triangle the all-"-a" labeling accepts everywhere, so the sweep violates
// and its span carries the rank.
func TestHidingLiveTelemetryPlane(t *testing.T) {
	inst := core.NewAnonymousInstance(graph.MustCycle(3))
	alpha := markerAlphabet()

	tr := obs.NewTracer(256)
	sc := obs.NewScope().WithTracer(tr)

	if _, err := nbhd.BuildShardedCtx(context.Background(), sc, markerDecoder{}, nbhd.ShardedAllLabelings(alpha, inst), 4, 2); err != nil {
		t.Fatal(err)
	}
	runErr := core.ExhaustiveStrongSoundnessParallelCtx(context.Background(), sc, markerDecoder{}, core.TwoCol(), inst, alpha, 4, 2)
	if runErr == nil {
		t.Fatal("marker decoder did not violate on the triangle; the violation_rank check would be vacuous")
	}
	assertHidden(t, "soundness sweep error", runErr.Error())

	srv := httptest.NewServer(export.NewHandler(export.ServerOptions{
		Registry: sc.Registry(), Tracer: tr,
	}, nil))
	defer srv.Close()

	bodies := map[string]string{}
	for _, ep := range []string{"/metrics", "/trace"} {
		resp, err := http.Get(srv.URL + ep)
		if err != nil {
			t.Fatalf("GET %s: %v", ep, err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("reading %s: %v", ep, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", ep, resp.StatusCode)
		}
		assertHidden(t, ep, string(body))
		bodies[ep] = string(body)
	}

	// The marker check is vacuous unless the pipelines reached /trace.
	var doc struct{ Spans []obs.SpanRecord }
	if err := json.Unmarshal([]byte(bodies["/trace"]), &doc); err != nil {
		t.Fatalf("/trace is not JSON: %v", err)
	}
	attrs := map[string][]obs.Attr{}
	for _, sp := range doc.Spans {
		attrs[sp.Name] = sp.Attrs
	}
	for _, name := range []string{"nbhd.build", "core.exhaustive"} {
		if _, ok := attrs[name]; !ok {
			t.Errorf("/trace holds no %s span:\n%s", name, bodies["/trace"])
		}
	}
	rank := ""
	for _, a := range attrs["core.exhaustive"] {
		if a.Key == "violation_rank" {
			rank = a.Value
		}
	}
	if rank == "" {
		t.Errorf("violating sweep left no violation_rank on core.exhaustive: %+v", attrs["core.exhaustive"])
	}
	assertHidden(t, "violation_rank attribute", rank)
}

// TestHidingViewAndViolationStrings pins the per-value redactions: a
// stringified view shows a digest of its labels, never the bytes, and a
// sanitizer violation embedding that view inherits the guarantee.
func TestHidingViewAndViolationStrings(t *testing.T) {
	g := graph.Path(3)
	labels := []string{hidingMarker + "-a", hidingMarker + "-b", hidingMarker + "-a"}
	mu, err := view.Extract(g, graph.DefaultPorts(g), graph.SequentialIDs(g.N()), labels, 9, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	assertHidden(t, "view.String()", mu.String())
	if mu.KeyDigest() == "" {
		t.Error("KeyDigest must still give operators a correlation handle")
	}

	v := &sanitize.Violation{Check: "repeat", Detail: "flipped verdict on identical view", View: mu}
	assertHidden(t, "sanitize.Violation.Error()", v.Error())

	l, err := core.NewLabeled(core.NewInstance(g), labels)
	if err != nil {
		t.Fatal(err)
	}
	sv := &core.StrongSoundnessViolation{Labeled: l, Accepting: []int{0, 2}}
	assertHidden(t, "core.StrongSoundnessViolation.Error()", sv.Error())
}

// TestHidingRedactionResidue checks the sanctioned residue directly: the
// redactors expose length and digest, which certflow treats as clean, and
// nothing else of the input.
func TestHidingRedactionResidue(t *testing.T) {
	red := obs.RedactString(hidingMarker)
	assertHidden(t, "obs.RedactString", red)
	if !strings.Contains(red, "len=17") {
		t.Errorf("redaction %q lost the length residue", red)
	}
	assertHidden(t, "obs.RedactStrings", obs.RedactStrings(markerAlphabet()))
}
