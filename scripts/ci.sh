#!/usr/bin/env bash
# The steps of .github/workflows/tests.yml, one subcommand each, so that the
# same commands run in CI and on a desk.
#
#   scripts/ci.sh PYTHON STEP...    run the steps in order, from the repo root
#   scripts/ci.sh PYTHON all        every step but install-pytest
#
# Steps: install-pytest, tests, hash-seeds, console-script, line-count, golden,
# mutations.
# PYTHON is the interpreter (in CI: python).  Each step ends with one
# "ci: STEP passed|FAILED ..." line; the last line sums them up.  Outside CI,
# the line count's job summary goes to standard output, console-script works
# in a temporary directory that it removes, and pip reads its usual PIP_* settings
# (offline: PIP_NO_INDEX=1 PIP_NO_BUILD_ISOLATION=0 and a Python that has
# setuptools).
set -uo pipefail

if [ $# -lt 2 ]; then
  sed -n '2,15p' "$0" >&2
  exit 2
fi
py=$1
shift
cd "$(dirname "$0")/.." || exit 2
src="src${PYTHONPATH:+:$PYTHONPATH}"

step_install_pytest() {
  "$py" -m pip install pytest
}

step_tests() {
  PYTHONPATH=$src "$py" -m pytest -q --continue-on-collection-errors --durations=15
}

# The fixed-hash-seed runs: test files, then the -k keywords that select their
# tests (none: the whole files).  One run per line.
hash_seed_runs=(
  "tests/test_properties.py tests/test_puzzle.py :"
  "tests/test_fuzz.py : puzzle_zeta"
  "tests/test_coupled.py : reference_build_puzzle flagged image_cylinder golden level_walk grid_components mask_layout block_size"
  "tests/test_graphs.py : excursion avoiding"
)

step_hash_seeds() {
  # puzzle, property, coupled label, mask-walk and golden, excursion and puzzle-zeta tests under fixed hash seeds;
  # a keyword that selects no test (say, after a rename) fails the step
  local run files keywords kw seed
  for run in "${hash_seed_runs[@]}"; do
    files=${run%%:*} keywords=${run#*:}
    for kw in $keywords; do
      if ! PYTHONPATH=$src "$py" -m pytest -q --collect-only -p no:cacheprovider $files -k "$kw" > /dev/null; then
        echo "hash-seeds: -k $kw selects no test in $files"
        return 1
      fi
    done
  done
  for seed in 0 1; do
    for run in "${hash_seed_runs[@]}"; do
      files=${run%%:*} keywords=$(echo ${run#*:} | sed 's/ / or /g')
      PYTHONHASHSEED=$seed PYTHONPATH=$src "$py" -m pytest -q $files ${keywords:+-k "$keywords"} || return 1
    done
  done
}

step_console_script() {
  # the README's CLI commands through the installed console script
  "$py" -m pip install . || return 1
  local bin tmp command status
  bin=$(dirname "$(command -v "$py")")
  tmp=${RUNNER_TEMP:-}
  if [ -z "$tmp" ]; then
    tmp=$(mktemp -d)
    trap 'rm -rf "$tmp"' RETURN
  fi
  sed -n '/^## CLI$/,/^## /p' README.md | grep '^qfpuzzles ' \
    | sed 's/--out puzzle\.json/--out coupled.json/' > "$tmp/readme-commands.sh"
  (
    cd "$tmp" || exit 1
    export PATH="$bin:$PATH"
    echo '{"kind":"complete","d":3}' > k3.json
    echo '{"kind":"two_hub","a":[1],"b":[0,1],"s":[1],"t":[1]}' > g.json
    "$py" -c "from qfpuzzles.constructions import golden_mean_puzzle; print(golden_mean_puzzle(6).dumps())" > puzzle.json || exit 1
    test "$(wc -l < readme-commands.sh)" -eq 11 || exit 1
    while read -r command; do
      echo "+ $command"
      status=0
      eval "$command" > /dev/null || status=$?
      if [ "$status" -ne 0 ]; then
        echo "::error title=README command::exit $status from: $command"
        exit 1
      fi
    done < readme-commands.sh
    status=0
    qfpuzzles puzzle validate --in missing.json || status=$?
    echo "puzzle validate on a missing file exited $status"
    test "$status" -eq 1
  )
}

step_line_count() {
  local seed=4049 total line
  total=$(cat src/qfpuzzles/*.py | wc -l)
  line="src/qfpuzzles: $total lines, $(printf '%+d' $((total - seed))) against the seed's $seed"
  echo "$line"
  if [ "$total" -gt "$seed" ]; then
    echo "::warning title=Source line count::$line"
  fi
  {
    echo '```'
    wc -l src/qfpuzzles/*.py
    echo "$line"
    echo "tests/*.py: $(cat tests/*.py | wc -l) lines"
    echo '```'
  } >> "${GITHUB_STEP_SUMMARY:-/dev/stdout}"
}

step_golden() {
  # the benchmark's golden checks, one short run per workload
  local w
  for w in shift-pipeline graph-zeta coupled-sweep cli-readme; do
    "$py" perfbench/run.py --workload "$w" --seed 1 --seconds 1 --trace 0 || return 1
  done
}

step_mutations() {
  # the recorded mutations of tests/mutations.json, each applied alone to a copy of the tree
  "$py" scripts/mutate.py
}

steps=("$@")
if [ "${steps[*]}" = all ]; then
  steps=(tests hash-seeds console-script line-count golden mutations)
fi
version=$("$py" -c 'import platform; print(platform.python_version())') || exit 2
summary=()
failed=0
for step in "${steps[@]}"; do
  fn="step_${step//-/_}"
  if ! declare -F "$fn" > /dev/null; then
    echo "ci: unknown step $step" >&2
    exit 2
  fi
  start=$SECONDS
  if "$fn"; then
    result=passed
  else
    result=FAILED
    failed=1
  fi
  summary+=("$step $result")
  echo "ci: $step $result in $((SECONDS - start)) s under Python $version"
done
echo "ci: Python $version: $(IFS=,; echo "${summary[*]}" | sed 's/,/, /g')"
exit $failed
