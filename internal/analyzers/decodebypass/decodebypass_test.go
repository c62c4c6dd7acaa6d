package decodebypass_test

import (
	"testing"

	"ps3/internal/analyzers/analyzertest"
	"ps3/internal/analyzers/decodebypass"
)

func TestDecodeBypass(t *testing.T) {
	a := decodebypass.New(decodebypass.Config{
		PkgName:  "table",
		TypeName: "Partition",
		Fields:   []string{"Num", "Cat"},
		Allowed: map[string]bool{
			"(*table.Partition).NumCol": true,
			"table.MakePartition":       true,
		},
		ViewType:   "EncodedCol",
		ViewFields: []string{"Packed", "RunVals", "RunEnds"},
	})
	analyzertest.Run(t, "testdata", a, "table", "use")
}
