#!/usr/bin/env bash
# clang-tidy driver: configures a compile database if none exists, then runs
# the repo .clang-tidy profile over the C++ sources.
#
#   tools/run_clang_tidy.sh [-p BUILD_DIR] [--fix] [--if-available] [PATH...]
#
# PATHs default to src tests bench examples tools. Exit 0 = clean.
# --if-available turns a missing clang-tidy into a warning + exit 0 instead
# of exit 127, so CI and contributor machines without clang dev packages
# still pass (the udwn_analyze gate runs regardless).
set -euo pipefail

repo_root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build_dir="${repo_root}/build-dev"
fix_flag=()
paths=()
if_available=0

while [[ $# -gt 0 ]]; do
  case "$1" in
    -p) build_dir="$2"; shift 2 ;;
    --fix) fix_flag=(--fix --fix-errors); shift ;;
    --if-available) if_available=1; shift ;;
    -h|--help) grep '^#' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
    *) paths+=("$1"); shift ;;
  esac
done
[[ ${#paths[@]} -gt 0 ]] || paths=(src tests bench examples tools)

tidy="$(command -v clang-tidy || true)"
if [[ -z "${tidy}" ]]; then
  for version in 20 19 18 17 16 15; do
    if command -v "clang-tidy-${version}" >/dev/null 2>&1; then
      tidy="clang-tidy-${version}"
      break
    fi
  done
fi
if [[ -z "${tidy}" ]]; then
  if [[ "${if_available}" -eq 1 ]]; then
    echo "run_clang_tidy: WARNING: clang-tidy not found on PATH — skipping" >&2
    exit 0
  fi
  echo "run_clang_tidy: clang-tidy not found on PATH" >&2
  exit 127
fi

if [[ ! -f "${build_dir}/compile_commands.json" ]]; then
  echo "run_clang_tidy: configuring ${build_dir} for compile_commands.json"
  cmake -S "${repo_root}" -B "${build_dir}" \
    -DCMAKE_EXPORT_COMPILE_COMMANDS=ON >/dev/null
fi

cd "${repo_root}"
files=()
while IFS= read -r f; do files+=("$f"); done \
  < <(find "${paths[@]}" -name '*.cpp' | sort)
if [[ ${#files[@]} -eq 0 ]]; then
  echo "run_clang_tidy: no sources under: ${paths[*]}" >&2
  exit 2
fi

echo "run_clang_tidy: ${tidy} over ${#files[@]} files (db: ${build_dir})"
status=0
printf '%s\n' "${files[@]}" \
  | xargs -P "$(nproc)" -n 4 \
      "${tidy}" -p "${build_dir}" --quiet "${fix_flag[@]}" || status=$?
exit "${status}"
