package lockorder_test

import (
	"testing"

	"postlob/internal/analysis/analysistest"
	"postlob/internal/analysis/lockorder"
)

func TestLockOrder(t *testing.T) {
	analysistest.RunProgram(t, analysistest.TestData(), lockorder.Analyzer, "buffer", "app", "heap", "repl")
}
