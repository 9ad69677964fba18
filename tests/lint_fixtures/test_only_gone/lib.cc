// The library after Unused was deleted: one function production calls, one
// only the test calls, and a helper production calls too.
namespace demo {

int Used(int x) { return x + 1; }

int TestOnly(int x) { return x * 2; }

int Helper(int x) { return x + 5; }

}  // namespace demo
