package main

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"trinit"
)

// session runs the REPL over scripted input and returns the transcript.
func session(t *testing.T, input string) string {
	t.Helper()
	var out bytes.Buffer
	runREPL(trinit.NewDemoEngine(), strings.NewReader(input), &out)
	return out.String()
}

func TestREPLQueryAndExplain(t *testing.T) {
	out := session(t, "AlbertEinstein hasAdvisor ?x\n.explain 1\n.quit\n")
	for _, want := range []string{
		"AlfredKleiner",
		"score 1.0000",
		"relaxations invoked",
		"fig4-2",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("transcript missing %q:\n%s", want, out)
		}
	}
}

func TestREPLHelpStatsRules(t *testing.T) {
	out := session(t, ".help\n.stats\n.rules\n.quit\n")
	for _, want := range []string{
		"commands:",
		"triples=12 (KG 8, XKG 4)",
		"fig4-1",
		"fig4-4",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("transcript missing %q:\n%s", want, out)
		}
	}
}

func TestREPLWatchStreamsProgressively(t *testing.T) {
	out := session(t, ".watch AlbertEinstein hasAdvisor ?x\n.quit\n")
	if !strings.Contains(out, "~") {
		t.Errorf("no provisional line in watch output:\n%s", out)
	}
	if !strings.Contains(out, "final ranking:") {
		t.Errorf("no final ranking in watch output:\n%s", out)
	}
	if !strings.Contains(out, "AlfredKleiner") {
		t.Errorf("watch missed the answer:\n%s", out)
	}
	idx := strings.Index(out, "~")
	if fin := strings.Index(out, "final ranking:"); fin >= 0 && idx >= 0 && fin < idx {
		t.Errorf("final ranking printed before provisional answers:\n%s", out)
	}
}

func TestREPLAddRuleAndUse(t *testing.T) {
	out := session(t, ".rule basedin 0.9 ?x basedIn ?y => ?x 'housed in' ?y\nIAS basedIn ?x\n.quit\n")
	if !strings.Contains(out, "rule added") {
		t.Fatalf("rule not added:\n%s", out)
	}
	if !strings.Contains(out, "PrincetonUniversity") {
		t.Errorf("user rule did not produce answers:\n%s", out)
	}
}

func TestREPLAsk(t *testing.T) {
	out := session(t, ".ask Who was the advisor of Albert Einstein?\n.quit\n")
	if !strings.Contains(out, "translated: AlbertEinstein hasAdvisor ?a") {
		t.Errorf("translation missing:\n%s", out)
	}
	if !strings.Contains(out, "AlfredKleiner") {
		t.Errorf("answer missing:\n%s", out)
	}
}

func TestREPLTrace(t *testing.T) {
	out := session(t, ".trace\nAlbertEinstein hasAdvisor ?x\n.trace\n.quit\n")
	if !strings.Contains(out, "no previous result") {
		t.Errorf("trace before query should say so:\n%s", out)
	}
	if !strings.Contains(out, "no matches") || !strings.Contains(out, "evaluated") {
		t.Errorf("trace output missing statuses:\n%s", out)
	}
}

func TestREPLComplete(t *testing.T) {
	out := session(t, ".complete Albert\n.quit\n")
	if !strings.Contains(out, "AlbertEinstein") {
		t.Errorf("completion missing:\n%s", out)
	}
}

func TestREPLErrors(t *testing.T) {
	out := session(t, ".bogus\nbroken ' query\n.rule incomplete\n.rule x notanumber ?a p ?b => ?a q ?b\n.explain 1\n.quit\n")
	for _, want := range []string{
		"unknown command",
		"error: query parse error",
		"usage: .rule",
		"bad weight",
		"no previous result",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("transcript missing %q:\n%s", want, out)
		}
	}
}

func TestREPLSave(t *testing.T) {
	path := filepath.Join(t.TempDir(), "demo.tnt")
	out := session(t, ".save "+path+"\n.quit\n")
	if !strings.Contains(out, "saved XKG and rules") {
		t.Fatalf("save failed:\n%s", out)
	}
	e, err := trinit.LoadFile(path, nil)
	if err != nil {
		t.Fatal(err)
	}
	e.Freeze()
	if e.Stats().Triples != 12 {
		t.Fatalf("saved file triples = %d", e.Stats().Triples)
	}
}

// TestREPLSnapshotSaveLoad: .save without a .tnt suffix writes the
// binary segment snapshot, and .load swaps the session onto it —
// queries keep answering against the reloaded store.
func TestREPLSnapshotSaveLoad(t *testing.T) {
	path := filepath.Join(t.TempDir(), "demo.snap")
	out := session(t, ".save "+path+"\n.load "+path+"\nAlbertEinstein hasAdvisor ?x\n.quit\n")
	if !strings.Contains(out, "saved XKG and rules") {
		t.Fatalf("save failed:\n%s", out)
	}
	if !strings.Contains(out, "loaded snapshot") || !strings.Contains(out, "12 triples") {
		t.Fatalf("load failed:\n%s", out)
	}
	if !strings.Contains(out, "AlfredKleiner") {
		t.Errorf("query against reloaded snapshot missed the answer:\n%s", out)
	}
}

func TestREPLEOFExits(t *testing.T) {
	// No .quit: the loop must end at EOF without hanging.
	out := session(t, ".stats\n")
	if !strings.Contains(out, "triples=12") {
		t.Errorf("transcript: %s", out)
	}
}
