package analysis_test

import (
	"testing"

	"hidinglcp/internal/analysis"
	"hidinglcp/internal/analysis/analysistest"
)

// Each analyzer's fixture seeds at least one violation per rule (the
// `// want` lines) and several clean constructions that must stay quiet.

func TestDecoderPurity(t *testing.T) {
	analysistest.Run(t, "testdata", "decoderpurity", analysis.DecoderPurityAnalyzer)
}

func TestMapOrder(t *testing.T) {
	analysistest.Run(t, "testdata", "maporder", analysis.MapOrderAnalyzer)
}

func TestNondet(t *testing.T) {
	analysistest.Run(t, "testdata", "nondet", analysis.NondetAnalyzer)
}

func TestAnonID(t *testing.T) {
	analysistest.Run(t, "testdata", "anonid", analysis.AnonIDAnalyzer)
}

func TestObsPurity(t *testing.T) {
	analysistest.Run(t, "testdata", "obspurity", analysis.ObsPurityAnalyzer)
}

func TestCertflow(t *testing.T) {
	analysistest.Run(t, "testdata", "certflow", analysis.CertflowAnalyzer)
}

func TestAtomicMix(t *testing.T) {
	analysistest.Run(t, "testdata", "atomicmix", analysis.AtomicMixAnalyzer)
}

func TestGoStmt(t *testing.T) {
	analysistest.Run(t, "testdata", "gostmt", analysis.GoStmtAnalyzer)
	// The stand-in cancel package's go statement must stay silent.
	analysistest.Run(t, "testdata", "cancel", analysis.GoStmtAnalyzer)
}

// The races the loopcapture and wgmisuse analyzers reported are now
// reported by gostmt at the go statement that starts them.

func TestLoopCapture(t *testing.T) {
	analysistest.Run(t, "testdata", "loopcapture", analysis.GoStmtAnalyzer)
}

func TestWGMisuse(t *testing.T) {
	analysistest.Run(t, "testdata", "wgmisuse", analysis.GoStmtAnalyzer)
}

func TestPoolEscape(t *testing.T) {
	analysistest.Run(t, "testdata", "poolescape", analysis.PoolEscapeAnalyzer)
}

func TestCtxFlow(t *testing.T) {
	analysistest.Run(t, "testdata", "ctxflow", analysis.CtxFlowAnalyzer)
}

func TestAllListsEveryAnalyzer(t *testing.T) {
	names := map[string]bool{}
	for _, a := range analysis.All() {
		if a.Name == "" || a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if names[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		names[a.Name] = true
	}
	for _, want := range []string{
		"decoderpurity", "maporder", "nondet", "anonid", "obspurity",
		"certflow", "atomicmix", "gostmt", "poolescape", "ctxflow",
	} {
		if !names[want] {
			t.Errorf("All() is missing analyzer %q", want)
		}
	}
}
