// Fixture for the test-only-symbol rule: seeded.cpp includes this header
// (so test-only-module stays quiet) but nothing calls unused_oracle(), so
// the rule flags it once. The annotated and private members show what the
// rule skips. Never compiled.
#pragma once

class FixtureProbe {
 public:
  // test-only-ok: fixture oracle, silenced on purpose.
  int silenced_oracle() const { return 0; }
  int unused_oracle() const { return 1; }  // public, never called

 private:
  int hidden() const { return 2; }  // private: not checked
};
