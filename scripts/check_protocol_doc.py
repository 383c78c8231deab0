#!/usr/bin/env python3
"""Keeps docs/PROTOCOL.md in lockstep with the line-protocol code.

docs/PROTOCOL.md is the serve protocol's reference, and its verb table
is the part clients code against — so CI treats it as a contract:
the set of verbs in the table must match, exactly, the set of verbs
src/serve/line_protocol.cc actually dispatches on. A verb handled in
code but missing from the table is an undocumented verb; a verb in the
table with no handler is documentation for a command the server would
reject. Either direction fails the build.

Extraction is deliberately dumb and format-anchored:
  - doc side: rows of the markdown table whose first cell is an
    all-caps token (`| OBS | ... |`),
  - code side: the `command == "VERB"` comparisons of
    LineProtocol::Execute and LineProtocol::Reply, plus QUIT-style
    verbs matched the same way.
If either anchor pattern stops matching anything, that is itself an
error — the checker refuses to pass vacuously.

Usage: check_protocol_doc.py [--doc docs/PROTOCOL.md]
                             [--source src/serve/line_protocol.cc]
"""

import argparse
import re
import sys

DOC_ROW = re.compile(r"^\|\s*([A-Z]+)\s*\|")
CODE_VERB = re.compile(r'command == "([A-Z]+)"')


def fail(message):
    print("check_protocol_doc: FAIL: %s" % message)
    sys.exit(1)


def doc_verbs(path):
    verbs = []
    with open(path, encoding="utf-8") as f:
        for line in f:
            match = DOC_ROW.match(line.strip())
            if match:
                verbs.append(match.group(1))
    return verbs


def code_verbs(path):
    with open(path, encoding="utf-8") as f:
        return CODE_VERB.findall(f.read())


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--doc", default="docs/PROTOCOL.md")
    parser.add_argument("--source", default="src/serve/line_protocol.cc")
    args = parser.parse_args()

    documented = doc_verbs(args.doc)
    handled = code_verbs(args.source)

    if not documented:
        fail("no verb-table rows found in %s (anchor pattern '| VERB |' "
             "matched nothing — was the table reformatted?)" % args.doc)
    if not handled:
        fail("no 'command == \"VERB\"' comparisons found in %s — was the "
             "dispatcher refactored?" % args.source)

    dup = sorted({v for v in documented if documented.count(v) > 1})
    if dup:
        fail("duplicate verb rows in %s: %s" % (args.doc, " ".join(dup)))

    undocumented = sorted(set(handled) - set(documented))
    if undocumented:
        fail("verb(s) handled in %s but undocumented in %s: %s"
             % (args.source, args.doc, " ".join(undocumented)))

    phantom = sorted(set(documented) - set(handled))
    if phantom:
        fail("verb(s) documented in %s but not handled in %s: %s"
             % (args.doc, args.source, " ".join(phantom)))

    print("check_protocol_doc: OK: %d verbs documented and handled (%s)"
          % (len(set(handled)), " ".join(sorted(set(handled)))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
