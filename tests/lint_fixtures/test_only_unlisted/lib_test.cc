namespace demo {
int Used(int x);
int TestOnly(int x);
}  // namespace demo

int main(int argc, char**) { return demo::Used(argc) + demo::TestOnly(argc) == 0; }
