# Sourced by the workflow's steps: `. .github/ci/expect_one_line_error.sh`.
#
# expect_one_line_error [--exit N] CMD [ARG...] runs CMD with stdin from
# /dev/null, stdout in out.txt and stderr in err.txt, prints err.txt, and
# fails the step unless CMD exits N (default 1) with a one-line message and
# no traceback.
expect_one_line_error() {
  want=1
  if [ "$1" = --exit ]; then want=$2; shift 2; fi
  code=0
  "$@" < /dev/null > out.txt 2> err.txt || code=$?
  cat err.txt
  test "$code" -eq "$want"
  test "$(wc -l < err.txt)" -eq 1
  if grep -q Traceback err.txt; then exit 1; fi
}
