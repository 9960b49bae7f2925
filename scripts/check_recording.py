#!/usr/bin/env python3
"""Validate an ACR flight recording (JSONL) against the checked-in schema.

Usage: check_recording.py SCHEMA RECORDING [RECORDING...]

Checks, per recording:
  * every line parses as a JSON object and validates against the schema
    (the subset of JSON Schema the schema file uses: type, required,
    properties, items, enum, const, oneOf);
  * `seq` equals the line index (0-based, no gaps, no reordering);
  * when a `begin` event is present it is the first line;
  * the last event is terminal (`end`) — a recording that stops anywhere
    else means the producer crashed or truncated the file;
  * a verdict's optional `node` (its delta-tree position; absent when the
    full-verify oracle scored it) is a non-empty path rooted at "anchor";
  * an annotated `smt` event (symbolic queries) is internally consistent:
    every `model_delta` key names a variable in `vars`, and a
    `model_delta` may only appear on a sat query alongside `vars`.

Exits 0 when every recording is valid, 1 otherwise. Stdlib only: CI
containers have no jsonschema package.
"""

import json
import sys

TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "integer": int,
    "number": (int, float),
    "boolean": bool,
}


def validate(instance, schema, path="$"):
    """Returns a list of error strings (empty = valid)."""
    errors = []
    if "const" in schema and instance != schema["const"]:
        return ["%s: expected %r, got %r" % (path, schema["const"], instance)]
    if "enum" in schema and instance not in schema["enum"]:
        return ["%s: %r not one of %r" % (path, instance, schema["enum"])]
    if "type" in schema:
        expected = TYPES[schema["type"]]
        # bool is a subclass of int in Python; keep integer strict.
        if isinstance(instance, bool) and schema["type"] in ("integer", "number"):
            return ["%s: expected %s, got boolean" % (path, schema["type"])]
        if not isinstance(instance, expected):
            return ["%s: expected %s, got %s"
                    % (path, schema["type"], type(instance).__name__)]
    if isinstance(instance, dict):
        for key in schema.get("required", []):
            if key not in instance:
                errors.append("%s: missing required field %r" % (path, key))
        for key, sub in schema.get("properties", {}).items():
            if key in instance:
                errors.extend(validate(instance[key], sub, "%s.%s" % (path, key)))
    if isinstance(instance, list) and "items" in schema:
        for i, item in enumerate(instance):
            errors.extend(validate(item, schema["items"], "%s[%d]" % (path, i)))
    if "oneOf" in schema:
        branch_errors = []
        for branch in schema["oneOf"]:
            sub = validate(instance, branch, path)
            if not sub:
                break
            branch_errors.append(sub)
        else:
            summary = "; ".join(e[0] for e in branch_errors[:3])
            errors.append("%s: matches no oneOf branch (%s)" % (path, summary))
    return errors


def check_recording(path, schema):
    errors = []
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line for line in handle.read().split("\n") if line]
    if not lines:
        return ["%s: empty recording" % path]
    events = []
    for index, line in enumerate(lines):
        where = "%s:%d" % (path, index + 1)
        try:
            event = json.loads(line)
        except ValueError as error:
            errors.append("%s: not JSON (%s)" % (where, error))
            continue
        if not isinstance(event, dict):
            errors.append("%s: event is not an object" % where)
            continue
        events.append((where, event))
        errors.extend(validate(event, schema, where))
        if event.get("seq") != index:
            errors.append("%s: seq %r, expected %d (line order is the event "
                          "order)" % (where, event.get("seq"), index))
        if event.get("event") == "verdict" and "node" in event:
            node = event["node"]
            if not isinstance(node, str) or not node.startswith("anchor"):
                errors.append("%s: verdict node %r is not a tree path rooted "
                              "at 'anchor'" % (where, node))
        if event.get("event") == "smt" and "model_delta" in event:
            if "vars" not in event:
                errors.append("%s: smt model_delta without a vars array"
                              % where)
            elif not event.get("sat"):
                errors.append("%s: smt model_delta on an unsat query" % where)
            else:
                names = {var.get("name") for var in event["vars"]
                         if isinstance(var, dict)}
                for key in event["model_delta"]:
                    if key not in names:
                        errors.append("%s: model_delta key %r names no "
                                      "variable in vars" % (where, key))
    for where, event in events[1:]:
        if event.get("event") == "begin":
            errors.append("%s: begin event must be the first line" % where)
    if events and events[-1][1].get("event") != "end":
        errors.append("%s: last event is %r, expected terminal 'end'"
                      % (path, events[-1][1].get("event")))
    return errors


def main(argv):
    if len(argv) < 3:
        sys.stderr.write(__doc__)
        return 2
    with open(argv[1], "r", encoding="utf-8") as handle:
        schema = json.load(handle)
    failed = False
    for path in argv[2:]:
        errors = check_recording(path, schema)
        if errors:
            failed = True
            for error in errors:
                sys.stderr.write("check_recording: %s\n" % error)
        else:
            print("check_recording: %s OK" % path)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
