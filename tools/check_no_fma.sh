#!/bin/sh
# Fails when a library holds a fused multiply-add instruction. NNRT's SIMD
# kernels are bit-identical to the scalar reference backend only while
# every multiply and every add rounds on its own, so no vfmadd/vfmsub/
# vfnmadd/vfnmsub (nor vfmaddsub/vfmsubadd) may appear in libraven_nnrt.
#
#   tools/check_no_fma.sh LIBRARY
#
# Exits 77 (ctest's skip code for the nnrt_no_fma test) when objdump is not
# installed.
lib="$1"
if ! command -v objdump >/dev/null 2>&1; then
  echo "objdump not found: FMA check skipped"
  exit 77
fi
listing=$(objdump -d --no-show-raw-insn "$lib") || {
  echo "objdump failed on $lib"
  exit 1
}
fma=$(printf '%s\n' "$listing" | grep -E '[[:space:]]vfn?m(add|sub)')
if [ -n "$fma" ]; then
  echo "fused multiply-add instructions in $lib:"
  printf '%s\n' "$fma" | head -20
  exit 1
fi
echo "no fused multiply-add in $lib"
