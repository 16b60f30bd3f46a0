package walorder_test

import (
	"testing"

	"postlob/internal/analysis/analysistest"
	"postlob/internal/analysis/walorder"
)

func TestWalOrder(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), walorder.Analyzer,
		"postlob/internal/core", "postlob/internal/repl", "postlob/internal/txn", "a")
}
