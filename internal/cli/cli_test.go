package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestFpexpList(t *testing.T) {
	var out, errw bytes.Buffer
	if err := RunFpexp([]string{"-list"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, id := range []string{"fig1", "fig11", "prop1", "abl-mc"} {
		if !strings.Contains(got, id) {
			t.Errorf("list missing %s", id)
		}
	}
}

func TestFpexpSingleExperiment(t *testing.T) {
	var out, errw bytes.Buffer
	if err := RunFpexp([]string{"-exp", "fig2", "-quick"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "Greedy_1 failure") {
		t.Errorf("fig2 output missing title:\n%s", out.String())
	}
}

func TestFpexpCSV(t *testing.T) {
	var out, errw bytes.Buffer
	if err := RunFpexp([]string{"-exp", "fig3", "-csv", "-quick"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "node,I(v)") {
		t.Errorf("csv output wrong:\n%s", out.String())
	}
}

func TestFpexpPlot(t *testing.T) {
	var out, errw bytes.Buffer
	if err := RunFpexp([]string{"-exp", "fig7", "-quick", "-plot"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "A=G_ALL") {
		t.Errorf("plot legend missing:\n%s", out.String())
	}
}

func TestFpexpUnknownID(t *testing.T) {
	var out, errw bytes.Buffer
	if err := RunFpexp([]string{"-exp", "nope"}, &out, &errw); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestFpexpBadFlag(t *testing.T) {
	var out, errw bytes.Buffer
	if err := RunFpexp([]string{"-definitely-not-a-flag"}, &out, &errw); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestFpgenToStdout(t *testing.T) {
	var out, errw bytes.Buffer
	if err := RunFpgen([]string{"-dataset", "fig1"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "s x") {
		t.Errorf("fig1 edge list missing labeled edge:\n%s", out.String())
	}
	if !strings.Contains(errw.String(), "7 nodes, 9 edges") {
		t.Errorf("summary missing: %s", errw.String())
	}
}

func TestFpgenToFileAndFpplaceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "quote.edges")
	var out, errw bytes.Buffer
	if err := RunFpgen([]string{"-dataset", "quote", "-out", path, "-seed", "3"}, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	errw.Reset()
	if err := RunFpplace([]string{"-in", path, "-k", "4", "-algo", "gall"}, nil, &out, &errw); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "FR(A):      1.0000") {
		t.Errorf("expected perfect FR with 4 filters on quote:\n%s", out.String())
	}
}

func TestFpgenErrors(t *testing.T) {
	var out, errw bytes.Buffer
	if err := RunFpgen([]string{"-dataset", "nope"}, &out, &errw); err == nil {
		t.Error("unknown dataset accepted")
	}
	if err := RunFpgen([]string{"-dataset", "twitter", "-scale", "7"}, &out, &errw); err == nil {
		t.Error("bad scale accepted")
	}
	if err := RunFpgen([]string{"-dataset", "quote", "-out", "/no/such/dir/x.edges"}, &out, &errw); err == nil {
		t.Error("unwritable output accepted")
	}
}

func TestFpplaceFromStdin(t *testing.T) {
	edges := "0 1\n0 2\n1 3\n2 3\n3 4\n"
	var out, errw bytes.Buffer
	err := RunFpplace([]string{"-in", "-", "-k", "1", "-algo", "gall", "-q"},
		strings.NewReader(edges), &out, &errw)
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out.String()) != "3" {
		t.Errorf("quiet output = %q, want the junction node 3", out.String())
	}
}

func TestFpplaceBatchMultiFile(t *testing.T) {
	dir := t.TempDir()
	diamond := "0 1\n0 2\n1 3\n2 3\n3 4\n"
	wide := "0 1\n0 2\n0 3\n1 4\n2 4\n3 4\n4 5\n"
	paths := []string{filepath.Join(dir, "a.edges"), filepath.Join(dir, "b.edges")}
	for i, text := range []string{diamond, wide} {
		if err := os.WriteFile(paths[i], []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Quiet batch output: one "file<TAB>node" line per placed filter,
	// each graph's placement identical to its solo run (junction nodes 3
	// and 4 respectively).
	var out, errw bytes.Buffer
	err := RunFpplace([]string{"-k", "1", "-algo", "gall", "-q", paths[0], paths[1]},
		strings.NewReader(""), &out, &errw)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.TrimSpace(out.String())
	want := paths[0] + "\t3\n" + paths[1] + "\t4"
	if got != want {
		t.Errorf("batch quiet output = %q, want %q", got, want)
	}
	if !strings.Contains(errw.String(), "batch-placed 2 graphs") {
		t.Errorf("missing batch summary: %s", errw.String())
	}

	// Verbose mode prints one report block per file.
	out.Reset()
	errw.Reset()
	if err := RunFpplace([]string{"-in", paths[0], "-k", "1", paths[1]},
		strings.NewReader(""), &out, &errw); err != nil {
		t.Fatal(err)
	}
	for _, p := range paths {
		if !strings.Contains(out.String(), "=== "+p) {
			t.Errorf("verbose batch output missing block for %s:\n%s", p, out.String())
		}
	}
}

func TestFpplaceBatchRejectsSingleFileModes(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "g.edges")
	if err := os.WriteFile(p, []byte("0 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{
		{"-acyclic", p, p},
		{"-impacts", p, p},
		{"-algo", "tree", p, p},
		{"-in", "-", p},
		{p, "-"},
	} {
		if err := RunFpplace(args, strings.NewReader(""), &bytes.Buffer{}, &bytes.Buffer{}); err == nil {
			t.Errorf("args %v accepted in batch mode", args)
		}
	}
}

func TestFpplaceImpacts(t *testing.T) {
	edges := "0 1\n0 2\n1 3\n2 3\n3 4\n"
	var out, errw bytes.Buffer
	err := RunFpplace([]string{"-in", "-", "-impacts"}, strings.NewReader(edges), &out, &errw)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "3     1") {
		t.Errorf("impact table missing node 3:\n%s", out.String())
	}
}

func TestFpplaceAcyclicStdin(t *testing.T) {
	// Cycle 1↔2; must be repaired before the model accepts it.
	edges := "0 1\n1 2\n2 1\n2 3\n"
	var out, errw bytes.Buffer
	err := RunFpplace([]string{"-in", "-", "-acyclic", "-source", "0", "-k", "2"},
		strings.NewReader(edges), &out, &errw)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(errw.String(), "1 rejected") {
		t.Errorf("acyclic stats missing:\n%s", errw.String())
	}
}

func TestFpplaceTreeAlgo(t *testing.T) {
	// Source 3 feeding a 3-node path (a c-tree).
	edges := "3 0\n3 1\n3 2\n0 1\n1 2\n"
	var out, errw bytes.Buffer
	err := RunFpplace([]string{"-in", "-", "-algo", "tree", "-k", "1"},
		strings.NewReader(edges), &out, &errw)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "algorithm:  tree") {
		t.Errorf("tree output wrong:\n%s", out.String())
	}
}

func TestFpplaceErrors(t *testing.T) {
	var out, errw bytes.Buffer
	if err := RunFpplace([]string{}, nil, &out, &errw); err == nil {
		t.Error("missing -in accepted")
	}
	if err := RunFpplace([]string{"-in", "/no/such/file"}, nil, &out, &errw); err == nil {
		t.Error("missing file accepted")
	}
	if err := RunFpplace([]string{"-in", "-", "-algo", "nope"},
		strings.NewReader("0 1\n"), &out, &errw); err == nil {
		t.Error("unknown algorithm accepted")
	}
	if err := RunFpplace([]string{"-in", "-", "-engine", "nope"},
		strings.NewReader("0 1\n"), &out, &errw); err == nil {
		t.Error("unknown engine accepted")
	}
	// Cyclic input without -acyclic must fail at model construction.
	if err := RunFpplace([]string{"-in", "-"},
		strings.NewReader("0 1\n1 0\n"), &out, &errw); err == nil {
		t.Error("cyclic input accepted without -acyclic")
	}
}

func TestFpplaceBigEngine(t *testing.T) {
	edges := "0 1\n0 2\n1 3\n2 3\n3 4\n"
	var out, errw bytes.Buffer
	err := RunFpplace([]string{"-in", "-", "-engine", "big", "-k", "1"},
		strings.NewReader(edges), &out, &errw)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "F(A):       1") {
		t.Errorf("big engine output wrong:\n%s", out.String())
	}
}

func TestFpplaceWeighted(t *testing.T) {
	edges := "0 1 0.5\n0 2 0.5\n1 3 1.0\n2 3 1.0\n3 4 1.0\n3 5 1.0\n"
	var out, errw bytes.Buffer
	err := RunFpplace([]string{"-in", "-", "-weighted", "-k", "1"},
		strings.NewReader(edges), &out, &errw)
	if err != nil {
		t.Fatal(err)
	}
	// Expected copies at node 3 = 1.0; no node exceeds 1 in expectation,
	// so no filter helps and Φ is reported in expectation.
	if !strings.Contains(out.String(), "Φ(∅,V):     4") {
		t.Errorf("expected-value Φ wrong:\n%s", out.String())
	}
	// Weighted + big engine is rejected.
	if err := RunFpplace([]string{"-in", "-", "-weighted", "-engine", "big"},
		strings.NewReader(edges), &out, &errw); err == nil {
		t.Error("weighted + big engine accepted")
	}
	// ml-celf cannot coarsen a weighted model, so it places as celf does.
	hot := "0 1 0.9\n0 2 0.9\n1 3 1.0\n2 3 1.0\n3 4 1.0\n3 5 1.0\n"
	picks := map[string]string{}
	for _, algo := range []string{"celf", "ml-celf"} {
		var q bytes.Buffer
		if err := RunFpplace([]string{"-in", "-", "-weighted", "-k", "1", "-q", "-algo", algo},
			strings.NewReader(hot), &q, &errw); err != nil {
			t.Fatalf("weighted %s: %v", algo, err)
		}
		picks[algo] = q.String()
	}
	if picks["celf"] != "3\n" || picks["ml-celf"] != picks["celf"] {
		t.Errorf("weighted picks: celf %q, ml-celf %q, want \"3\\n\" for both", picks["celf"], picks["ml-celf"])
	}
}

func TestFpplaceDOTOutput(t *testing.T) {
	dir := t.TempDir()
	dot := filepath.Join(dir, "out.dot")
	edges := "0 1\n0 2\n1 3\n2 3\n3 4\n"
	var out, errw bytes.Buffer
	err := RunFpplace([]string{"-in", "-", "-k", "1", "-dot", dot},
		strings.NewReader(edges), &out, &errw)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dot)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "fillcolor=gold") {
		t.Errorf("DOT output missing highlighted filter:\n%s", data)
	}
}

func TestFpplaceRandomAlgos(t *testing.T) {
	edges := "0 1\n0 2\n1 3\n2 3\n3 4\n"
	for _, algo := range []string{"randk", "randi", "randw", "gmax", "g1", "gl", "celf", "prop1"} {
		var out, errw bytes.Buffer
		err := RunFpplace([]string{"-in", "-", "-algo", algo, "-k", "2", "-stats"},
			strings.NewReader(edges), &out, &errw)
		if err != nil {
			t.Errorf("%s: %v", algo, err)
		}
	}
}
