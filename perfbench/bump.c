## The watch_step debuggee: build(n) makes a fixed-length list once;
## bump(k) toggles the low bit of the first k cells in place, so the
## list never grows and every bump(k) changes the watched count k times.

struct cell { int value; struct cell *next; };
struct cell *first;
int len;

int build(int n) {
  int i;
  struct cell *q;
  for (i = 0; i < n; i++) {
    q = (struct cell *)malloc(sizeof(struct cell));
    q->value = i % 2;
    q->next = first;
    first = q;
    len = len + 1;
  }
  return len;
}

int bump(int k) {
  struct cell *p;
  int i;
  p = first;
  for (i = 0; i < k; i++) {
    p->value = 1 - p->value;
    p = p->next;
  }
  return k;
}
