// Fixture for the photon_lint self-test: a src/ header that no file under
// src/, bench/, examples/ or perfbench/ includes, so the test-only-module
// rule flags it once. Never compiled.
#pragma once

inline int orphan_helper() { return 0; }
