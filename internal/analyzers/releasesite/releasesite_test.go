package releasesite_test

import (
	"testing"

	"ps3/internal/analyzers/analyzertest"
	"ps3/internal/analyzers/releasesite"
)

func TestReleaseSite(t *testing.T) {
	a := releasesite.New(releasesite.Config{
		PkgName:  "table",
		TypeName: "Partition",
		Method:   "Release",
		Allowed: map[string]bool{
			"(*scan.Compiled).Estimate":         true,
			"(*scan.Compiled).EstimateStale":    true,
			"(*scan.Compiled).EstimateDeferred": true,
			"scan.newReader":                    true,
		},
	})
	analyzertest.Run(t, "testdata", a, "table", "scan")
}
