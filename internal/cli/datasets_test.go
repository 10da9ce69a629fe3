package cli

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/gen"
	"repro/internal/server"
)

// postGraph sends spec to POST /v1/graphs and returns the status, the
// created graph and the error text of a refusal.
func postGraph(t *testing.T, s *server.Server, spec server.GraphSpec) (int, server.GraphInfo, string) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/graphs", bytes.NewReader(body)))
	var info server.GraphInfo
	var e struct {
		Error string `json:"error"`
	}
	if rec.Code == http.StatusCreated {
		err = json.Unmarshal(rec.Body.Bytes(), &info)
	} else {
		err = json.Unmarshal(rec.Body.Bytes(), &e)
	}
	if err != nil {
		t.Fatalf("decode %s: %v", rec.Body.String(), err)
	}
	return rec.Code, info, e.Error
}

// TestDatasetSurfaces builds every row of the dataset table through fpgen
// and through POST /v1/graphs with default parameters. Both surfaces
// accept exactly the table's names and build the same graph from each.
// The rows a surface served before the two shared the table are pinned:
// fpgen's output bytes by SHA-256, fpd's GraphInfo by its figures, so
// moving onto the table changed no default.
func TestDatasetSurfaces(t *testing.T) {
	want := strings.Fields("quote twitter citation layered dag powerlaw tree bottleneck chain deep diamonds fig1 fig2 fig3")
	if got := gen.Names(); !slices.Equal(got, want) {
		t.Fatalf("dataset names = %v, want %v", got, want)
	}
	if got := server.Generators(); !slices.Equal(got, want) {
		t.Fatalf("fpd generators = %v, want %v", got, want)
	}
	pinnedFpgen := map[string]string{
		"quote":    "ca3170681845440e9a2eb6e3262d6b3553ebb77fa182b735570e59f1fc4d279f",
		"twitter":  "19d95d704fe1569060659267d0e8d3d6436396b360b188aba2634464c1731e57",
		"citation": "d1b76d0f58075826ad42a5be32efdaf944b5a65c005f5cb6a404883d3780a924",
		"layered":  "e1d36cd8f7d9153b81fcc690fd95c74a31bc3080da6b827d9edf41c14f22c225",
		"dag":      "dd33eb0b79096c7010da103ed38cdcec77702b54515d2ff94ada62cb95456293",
		"powerlaw": "ba5ddf40c2e168381ce35d927d5adfd23ceafdf61e2edb32233375139d1bc346",
		"tree":     "0e76c68f2ddb3109f272da39d5c0f88478ebcdf8df3a4846a19fd27a9b3fb399",
		"chain":    "fe060e859134c1624403bff96783d2def28b0177885f65e39ec29c4cc1a74d7c",
		"deep":     "6ebea9f26e951f2fc2ff001aa24f5ba5be8a6e143d4692bdb5fbd31ebbd62f23",
		"fig1":     "57d92927eec848cf13b968d4587e6f7e5ed2d0c26b853fcaf9ec0cc6f5150f23",
		"fig2":     "e63ddea1e444434090e08809d26786c890f2a33ddfc7fb68e5b888bfadf7b892",
		"fig3":     "a5e8f129b6e71edf59275aef705456a424e6cb70d0cfa01cbc7e96ea33a22d58",
	}
	// nodes edges sinks sources
	pinnedFpd := map[string]string{
		"quote":      "932 2837 652 [0]",
		"twitter":    "89996 119635 77866 [0]",
		"citation":   "9911 35845 6602 [0]",
		"layered":    "1001 29419 82 [1000]",
		"dag":        "1000 5033 104 [130]",
		"powerlaw":   "1000 3448 348 [0]",
		"tree":       "1001 1008 485 [1000]",
		"bottleneck": "31 43 6 [0]",
		"fig1":       "7 9 1 [0]",
		"fig2":       "11 12 5 [0]",
		"fig3":       "10 12 5 [0 1]",
	}
	s := server.New(server.Config{})
	defer s.Close()
	for _, name := range want {
		t.Run(name, func(t *testing.T) {
			var out, errw bytes.Buffer
			if err := RunFpgen([]string{"-dataset", name}, &out, &errw); err != nil {
				t.Fatalf("fpgen: %v", err)
			}
			sum := sha256.Sum256(out.Bytes())
			if pin, ok := pinnedFpgen[name]; ok && hex.EncodeToString(sum[:]) != pin {
				t.Errorf("fpgen output drifted: sha256 %x, want %s", sum, pin)
			}
			code, info, msg := postGraph(t, s, server.GraphSpec{Generator: name})
			if code != http.StatusCreated {
				t.Fatalf("POST /v1/graphs: status %d: %s", code, msg)
			}
			got := fmt.Sprintf("%d %d %d %v", info.Nodes, info.Edges, info.Sinks, info.Sources)
			if pin, ok := pinnedFpd[name]; ok && got != pin {
				t.Errorf("fpd graph = %s, want %s", got, pin)
			}
			summary := fmt.Sprintf("fpgen: %d nodes, %d edges, source(s) %v\n", info.Nodes, info.Edges, info.Sources)
			if errw.String() != summary {
				t.Errorf("fpgen built %q, fpd %q", errw.String(), summary)
			}
		})
	}
}

// TestDatasetRangeErrors: fpgen applies fpd's parameter range checks and
// refuses with the same text.
func TestDatasetRangeErrors(t *testing.T) {
	s := server.New(server.Config{})
	defer s.Close()
	for _, tc := range []struct {
		args []string
		spec server.GraphSpec
	}{
		{[]string{"-scale", "7"}, server.GraphSpec{Generator: "twitter", Scale: 7}},
		{[]string{"-n", "2000000000"}, server.GraphSpec{Generator: "dag", N: 2000000000}},
		{[]string{"-levels", "1000", "-perlevel", "1000"}, server.GraphSpec{Generator: "layered", Levels: 1000, PerLevel: 1000}},
		{[]string{"-depth", "40"}, server.GraphSpec{Generator: "bottleneck", Depth: 40}},
		{[]string{"-depth", "-1"}, server.GraphSpec{Generator: "diamonds", Depth: -1}},
		{[]string{"-chainlen", "-3"}, server.GraphSpec{Generator: "chain", ChainLen: -3}},
	} {
		var out, errw bytes.Buffer
		err := RunFpgen(append([]string{"-dataset", tc.spec.Generator}, tc.args...), &out, &errw)
		code, _, msg := postGraph(t, s, tc.spec)
		if err == nil || code != http.StatusBadRequest {
			t.Errorf("%v: fpgen error %v, fpd status %d", tc.args, err, code)
			continue
		}
		cli, _ := strings.CutPrefix(err.Error(), "fpgen: ")
		if api, _ := strings.CutPrefix(msg, "graph spec: "); cli != api {
			t.Errorf("%v: fpgen says %q, fpd %q", tc.args, cli, api)
		}
	}
}
