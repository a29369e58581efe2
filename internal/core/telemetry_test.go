package core

import (
	"strings"
	"testing"

	"nok/internal/samples"
	"nok/internal/telemetry"
)

// TestTelemetryCapture checks that evaluating a query deposits a complete
// record in the default pipeline's flight recorder: expression, strategies,
// plan estimates, q-error, and (for planned queries) a renderable plan.
func TestTelemetryCapture(t *testing.T) {
	db := loadDB(t, samples.Bibliography, smallPages())

	ms, stats, err := db.Query(samples.PaperQuery, nil)
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	if stats.QueryID == 0 {
		t.Fatal("stats.QueryID not assigned")
	}

	var rec *telemetry.Record
	for _, r := range telemetry.Default.Recent(0) {
		if r.ID == stats.QueryID {
			rec = r
			break
		}
	}
	if rec == nil {
		t.Fatalf("query %d not in flight recorder", stats.QueryID)
	}

	// Expr is the canonical (normalized) pattern rendering — the same string
	// the plan cache keys on — so textual variants of one query aggregate.
	if rec.Expr == "" || !strings.Contains(rec.Expr, "book") {
		t.Errorf("Expr = %q, want canonical rendering of %q", rec.Expr, samples.PaperQuery)
	}
	if rec.Results != len(ms) {
		t.Errorf("Results = %d, want %d", rec.Results, len(ms))
	}
	if rec.Partitions != stats.Partitions || len(rec.Strategies) != stats.Partitions {
		t.Errorf("partitions = %d strategies = %v, want %d each", rec.Partitions, rec.Strategies, stats.Partitions)
	}
	if rec.Epoch != db.Epoch() {
		t.Errorf("Epoch = %d, want %d", rec.Epoch, db.Epoch())
	}
	if !rec.Planned {
		t.Fatal("auto-strategy query record not marked planned")
	}
	if rec.QError < 1 {
		t.Errorf("QError = %g, want >= 1", rec.QError)
	}
	if rec.EstRows != stats.EstRows || rec.EstPages != stats.EstPages {
		t.Errorf("estimates (%g, %g) don't match stats (%g, %g)",
			rec.EstRows, rec.EstPages, stats.EstRows, stats.EstPages)
	}
	if plan := rec.PlanText(); !strings.Contains(plan, "plan //book") {
		t.Errorf("PlanText missing plan header:\n%s", plan)
	}
	for _, s := range rec.Strategies {
		if s == "" || s == "auto" {
			t.Errorf("unresolved strategy in record: %v", rec.Strategies)
		}
	}
}

// TestTelemetryCaptureHeuristic checks heuristic (unplanned) evaluations
// record no plan and no q-error.
func TestTelemetryCaptureHeuristic(t *testing.T) {
	db := loadDB(t, samples.Bibliography, smallPages())
	_, stats, err := db.Query("/bib/book", &QueryOptions{DisablePlanner: true})
	if err != nil {
		t.Fatalf("Query: %v", err)
	}
	rec := findRecord(t, stats.QueryID)
	if rec.Planned || rec.QError != 0 || rec.PlanText() != "" {
		t.Errorf("heuristic record carries plan data: planned=%v qerror=%g plan=%q",
			rec.Planned, rec.QError, rec.PlanText())
	}
}

// TestTelemetryCaptureParseError checks malformed expressions still land in
// the flight recorder, with the error recorded.
func TestTelemetryCaptureParseError(t *testing.T) {
	db := loadDB(t, samples.Bibliography, smallPages())
	before := len(telemetry.Default.Recent(0))
	_, _, err := db.Query("//[", nil)
	if err == nil {
		t.Fatal("malformed query did not error")
	}
	recs := telemetry.Default.Recent(0)
	if len(recs) <= before && before < 256 {
		t.Fatal("parse error not recorded")
	}
	rec := recs[0] // newest first
	if rec.Expr != "//[" || rec.Error == "" {
		t.Errorf("parse-error record = expr %q error %q", rec.Expr, rec.Error)
	}
}

func findRecord(t *testing.T, id uint64) *telemetry.Record {
	t.Helper()
	if id == 0 {
		t.Fatal("query ID not assigned")
	}
	for _, r := range telemetry.Default.Recent(0) {
		if r.ID == id {
			return r
		}
	}
	t.Fatalf("query %d not in flight recorder", id)
	return nil
}
